package reuse

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/system"
)

// refCollocations is Collocations as it was before it enumerated in
// final order: each size's multisets recursed in ascending order, one
// counts slice each, then a stable sort by size and descending counts.
// It is the reference model TestCollocationsMatchReference checks
// against.
func refCollocations(n, k int) []Collocation {
	var out []Collocation
	for size := 1; size <= k; size++ {
		counts := make([]int, n)
		var rec func(typeIdx, remaining int)
		rec = func(typeIdx, remaining int) {
			if typeIdx == n-1 {
				counts[typeIdx] = remaining
				cp := make([]int, n)
				copy(cp, counts)
				out = append(out, Collocation{Counts: cp})
				counts[typeIdx] = 0
				return
			}
			for take := 0; take <= remaining; take++ {
				counts[typeIdx] = take
				rec(typeIdx+1, remaining-take)
			}
			counts[typeIdx] = 0
		}
		rec(0, size)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		for t := range out[i].Counts {
			if out[i].Counts[t] != out[j].Counts[t] {
				return out[i].Counts[t] > out[j].Counts[t]
			}
		}
		return false
	})
	return out
}

// refLabel is Label as it was, through fmt and strings.Join.
func refLabel(c Collocation) string {
	var parts []string
	for t, v := range c.Counts {
		switch {
		case v == 1:
			parts = append(parts, fmt.Sprintf("T%d", t+1))
		case v > 1:
			parts = append(parts, fmt.Sprintf("T%dx%d", t+1, v))
		}
	}
	return strings.Join(parts, "+")
}

// TestCollocationsMatchReference compares Collocations with the
// recursive reference for every n ≤ 6 and k ≤ 5: the same counts in
// the same order, the same labels, and every counts slice capped at its
// length, so appending to one cannot overwrite the next.
func TestCollocationsMatchReference(t *testing.T) {
	total := 0
	for n := 1; n <= 6; n++ {
		for k := 1; k <= 5; k++ {
			got, err := Collocations(n, k)
			if err != nil {
				t.Fatal(err)
			}
			want := refCollocations(n, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d collocations, want %d", n, k, len(got), len(want))
			}
			for i := range got {
				g, w := got[i].Counts, want[i].Counts
				if !slices.Equal(g, w) {
					t.Fatalf("n=%d k=%d #%d: counts %v, want %v", n, k, i, g, w)
				}
				if cap(g) != len(g) {
					t.Fatalf("n=%d k=%d #%d: cap %d, len %d", n, k, i, cap(g), len(g))
				}
				if gl, wl := got[i].Label(), refLabel(want[i]); gl != wl {
					t.Fatalf("n=%d k=%d #%d: label %q, want %q", n, k, i, gl, wl)
				}
			}
			total += len(got)
		}
	}
	if total != 1673 {
		t.Fatalf("%d collocations compared, want 1673", total)
	}
}

// TestCollocationLabelsMatchReference compares Label with the fmt-based
// reference on counts the enumeration never makes: zero and negative
// counts, and counts and type numbers of several digits.
func TestCollocationLabelsMatchReference(t *testing.T) {
	for _, counts := range [][]int{nil, {0}, {0, 0, 3}, {-1, 2}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12}, {123456, 1, 7}} {
		c := Collocation{Counts: counts}
		if got, want := c.Label(), refLabel(c); got != want {
			t.Errorf("%v: label %q, want %q", counts, got, want)
		}
	}
}

// TestCollocationsBound checks that an enumeration too large to lay out
// is an error, not an attempt to allocate it.
func TestCollocationsBound(t *testing.T) {
	for _, c := range []struct{ n, k int }{{40, 40}, {1000, 1000}, {1 << 20, 2}} {
		if _, err := Collocations(c.n, c.k); err == nil {
			t.Errorf("n=%d k=%d: no error", c.n, c.k)
		}
	}
}

// TestFSMCPlacementsFromOneSlab checks that FSMC's members carve their
// placements from one slab: each capped at its length, in collocation
// order, and adjacent in memory.
func TestFSMCPlacementsFromOneSlab(t *testing.T) {
	systems, err := FSMC(FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: 3, Sockets: 4,
		Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: packaging.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Collocations(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range systems {
		if s.Name != refLabel(cols[i]) {
			t.Fatalf("member %d named %q, want %q", i, s.Name, refLabel(cols[i]))
		}
		if cap(s.Placements) != len(s.Placements) {
			t.Fatalf("%s: cap %d, len %d", s.Name, cap(s.Placements), len(s.Placements))
		}
		if i > 0 {
			prev := systems[i-1].Placements
			end := reflect.ValueOf(prev).Pointer() + uintptr(len(prev))*reflect.TypeOf(prev).Elem().Size()
			if reflect.ValueOf(s.Placements).Pointer() != end {
				t.Fatalf("%s: placements do not follow %s's in one slab", s.Name, systems[i-1].Name)
			}
		}
	}
}

var sinkSystems []system.System

// TestFamilyBuilderAllocations pins the allocations of FSMC, the §5
// builder with the most members: it lays its collocations, modules and
// placements out in one array each and formats each name once, so a
// family of n members over t chiplet types costs n + 2t + 9
// allocations, one label per member and two names per type.
func TestFamilyBuilderAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	params := packaging.DefaultParams()
	for _, types := range []int{2, 3} {
		cfg := FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: types, Sockets: 4,
			Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: params}
		var err error
		n := testing.AllocsPerRun(50, func() {
			if sinkSystems, err = FSMC(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(len(sinkSystems) + 2*types + 9); n != want {
			t.Errorf("FSMC %dx4: %v allocations for %d members, want %v", types, n, len(sinkSystems), want)
		}
	}
}
