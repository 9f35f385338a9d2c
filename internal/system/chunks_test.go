package system

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// TestChunkSizes pins the doc's retention bound: a full placement
// chunk fits 24 KiB and a full module chunk 12 KiB, and each fills its
// size class, so the doubling never rounds past the maximum.
func TestChunkSizes(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		size  uintptr
		grown int
		limit uintptr
	}{
		{"placements", maxChunkPlacements, reflect.TypeFor[Placement]().Size(),
			cap(slices.Grow([]Placement(nil), maxChunkPlacements)), 24 << 10},
		{"modules", maxChunkModules, reflect.TypeFor[Module]().Size(),
			cap(slices.Grow([]Module(nil), maxChunkModules)), 12 << 10},
	} {
		if bytes := uintptr(c.n) * c.size; bytes > c.limit {
			t.Errorf("%s: a full chunk is %d B, over %d B", c.name, bytes, c.limit)
		}
		if c.grown != c.n {
			t.Errorf("%s: a chunk of %d rounds up to %d entries", c.name, c.n, c.grown)
		}
	}
}

// TestChunksCarve follows one kind's chunks through a long run of
// carves of assorted widths: every carve is fresh, zeroed and capped
// at its length; the first chunk holds the requested length; each
// later one at least doubles its predecessor until it reaches the
// maximum; and a carve wider than a chunk gets an exact slice of its
// own without disturbing the current chunk.
func TestChunksCarve(t *testing.T) {
	c := chunk[Placement]{next: 36, max: maxChunkPlacements}
	var chunks []int
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 64, maxChunkPlacements + 1, 2, 1}
	for i := 0; i < 2000; i++ {
		k := widths[i%len(widths)]
		before := len(c.free)
		s := c.carve(k)
		if len(s) != k || cap(s) != k {
			t.Fatalf("carve %d: len %d cap %d, want %d", i, len(s), cap(s), k)
		}
		for j := range s {
			if !reflect.ValueOf(s[j]).IsZero() {
				t.Fatalf("carve %d: entry %d is not zero: %+v", i, j, s[j])
			}
			s[j].Count = -1 // a carve that overlapped this one would not be zero
		}
		switch {
		case k > maxChunkPlacements:
			if len(c.free) != before {
				t.Fatalf("carve %d: an oversized carve of %d moved the chunk tail %d → %d", i, k, before, len(c.free))
			}
		case before < k:
			chunks = append(chunks, len(c.free)+k)
		}
	}
	if len(chunks) < 6 || chunks[0] < 36 {
		t.Fatalf("chunks %v", chunks)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i] != maxChunkPlacements && chunks[i] < 2*chunks[i-1] {
			t.Fatalf("chunk %d holds %d after %d (all: %v)", i, chunks[i], chunks[i-1], chunks)
		}
		if chunks[i] > maxChunkPlacements {
			t.Fatalf("chunk %d holds %d, over the maximum %d", i, chunks[i], maxChunkPlacements)
		}
	}
	if chunks[len(chunks)-1] != maxChunkPlacements {
		t.Fatalf("chunks never reach the maximum: %v", chunks)
	}

	var exact chunk[Module]
	for k := 1; k < 5; k++ {
		if s := exact.carve(k); len(s) != k || cap(s) != k || len(exact.free) != 0 {
			t.Fatalf("zero chunk: carve %d gave len %d cap %d, tail %d", k, len(s), cap(s), len(exact.free))
		}
	}
}

// TestChunksBuildLikePackageBuilders draws random names (empty, long,
// multi-byte), widths up to past a full chunk, schemes, areas and D2D
// overheads, and checks that a system built from shared chunks, with
// its name given as bytes, prints %#v-identical to the package-level
// PartitionEqual's or Monolithic's, with the same error when the
// combination is unbuildable, and that its slices are capped.
func TestChunksBuildLikePackageBuilders(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	names := []string{"", "s", "hot-MCM-q12345-a123.25-k8", strings.Repeat("long-", 40), "µ-系统"}
	schemes := []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
	d2ds := []dtod.Overhead{nil, dtod.None{}, dtod.Fraction{F: 0.1}}
	areas := []float64{600, 0.5, 0, -3, math.NaN()}
	c := NewChunks(1 + rng.IntN(40))
	built := 0
	for i := 0; i < 3000; i++ {
		name := names[rng.IntN(len(names))]
		k := 1 + rng.IntN(9)
		switch rng.IntN(20) {
		case 0:
			k = 60 + rng.IntN(250) // past a full placement chunk now and then
		case 1:
			k = rng.IntN(3) - 1 // 0 or negative
		}
		scheme := schemes[rng.IntN(len(schemes))]
		d2d := d2ds[rng.IntN(len(d2ds))]
		area := areas[rng.IntN(len(areas))]
		q := float64(rng.IntN(1e6))

		got, gotErr := c.PartitionEqual([]byte(name), "7nm", area, k, scheme, d2d, q)
		want, wantErr := PartitionEqual(name, "7nm", area, k, scheme, d2d, q)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("draw %d: error %v, package-level %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("draw %d (%q, k=%d, %v):\n got %s\nwant %s", i, name, k, scheme, g, w)
		}
		if k == 1 && scheme == packaging.SoC {
			if m := Monolithic(name, "7nm", area, q); fmt.Sprintf("%#v", m) != fmt.Sprintf("%#v", got) {
				t.Fatalf("draw %d: %#v, Monolithic %#v", i, got, m)
			}
		}
		if cap(got.Placements) != len(got.Placements) {
			t.Fatalf("draw %d: %d placements with cap %d", i, len(got.Placements), cap(got.Placements))
		}
		for _, p := range got.Placements {
			if cap(p.Chiplet.Modules) != 1 {
				t.Fatalf("draw %d: module slice cap %d", i, cap(p.Chiplet.Modules))
			}
		}
		built++
	}
	if built < 1000 {
		t.Fatalf("only %d of 3000 draws built", built)
	}
}
