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

// checkOneSlab checks that a family's members carve their placements
// from one slab: each capped at its length, in member order, and
// adjacent in memory.
func checkOneSlab(t *testing.T, family string, systems []system.System) {
	t.Helper()
	for i, s := range systems {
		if cap(s.Placements) != len(s.Placements) {
			t.Fatalf("%s %s: cap %d, len %d", family, s.Name, cap(s.Placements), len(s.Placements))
		}
		if i > 0 {
			prev := systems[i-1].Placements
			end := reflect.ValueOf(prev).Pointer() + uintptr(len(prev))*reflect.TypeOf(prev).Elem().Size()
			if reflect.ValueOf(s.Placements).Pointer() != end {
				t.Fatalf("%s %s: placements do not follow %s's in one slab", family, s.Name, systems[i-1].Name)
			}
		}
	}
}

// TestSCMSAndOCMEPlacementsFromOneSlab checks that SCMS and OCME carve
// their members' placements from one slab, as FSMC does, with and
// without a shared package.
func TestSCMSAndOCMEPlacementsFromOneSlab(t *testing.T) {
	params := packaging.DefaultParams()
	for _, shared := range []bool{false, true} {
		scms, err := SCMS(SCMSConfig{Node: "7nm", ModuleAreaMM2: 150, Counts: []int{4, 1, 2, 2},
			Scheme: packaging.MCM, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		checkOneSlab(t, "SCMS", scms)
		ocme, err := OCME(OCMEConfig{Node: "7nm", CenterNode: "14nm", SocketAreaMM2: 120,
			Scheme: packaging.TwoPointFiveD, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		checkOneSlab(t, "OCME", ocme)
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

var (
	sinkSystems []system.System
	sinkSystem  system.System
)

// TestFamilyBuilderAllocations pins the allocations of each §5 builder
// at a constant per family, whatever its size: every builder carves
// its members' placements from one slab and slices every name it
// formats from one string. FSMC lays its collocations (two arrays),
// chiplets, modules, placements, members, names and envelope out in one
// allocation each; SCMS and OCME their modules, placements, members and
// names, plus the envelope when the family shares a package. An SoC
// twin costs two: the block its placement and module share, and its
// names.
func TestFamilyBuilderAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	params := packaging.DefaultParams()
	pin := func(name string, want float64, build func() ([]system.System, error)) {
		t.Helper()
		var err error
		n := testing.AllocsPerRun(50, func() {
			if sinkSystems, err = build(); err != nil {
				t.Fatal(err)
			}
		})
		if n != want {
			t.Errorf("%s: %v allocations for %d members, want %v", name, n, len(sinkSystems), want)
		}
	}
	for _, types := range []int{2, 3} {
		cfg := FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: types, Sockets: 4,
			Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: params}
		pin(fmt.Sprintf("FSMC %dx4", types), 8, func() ([]system.System, error) { return FSMC(cfg) })
	}
	for _, shared := range []bool{false, true} {
		env := 0.0
		if shared {
			env = 1
		}
		scms := SCMSConfig{Node: "7nm", ModuleAreaMM2: 150, Counts: []int{1, 2, 4, 8, 16},
			Scheme: packaging.MCM, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params}
		pin(fmt.Sprintf("SCMS, shared package %v", shared), 4+env, func() ([]system.System, error) { return SCMS(scms) })
		ocme := OCMEConfig{Node: "7nm", CenterNode: "14nm", SocketAreaMM2: 120,
			Scheme: packaging.TwoPointFiveD, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params}
		pin(fmt.Sprintf("OCME, shared package %v", shared), 4+env, func() ([]system.System, error) { return OCME(ocme) })
	}
	fsmc, err := FSMC(FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: 3, Sockets: 4,
		Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fsmc {
		if n := testing.AllocsPerRun(50, func() { sinkSystem = SoCEquivalent(s, "5nm") }); n != 2 {
			t.Errorf("SoCEquivalent(%s): %v allocations, want 2", s.Name, n)
		}
	}
}
