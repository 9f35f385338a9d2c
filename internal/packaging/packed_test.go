package packaging

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"chipletactuary/internal/tech"
)

// partialOutcome prints a PartialFor answer: the partial by %#v bytes
// (NaN defeats ==, and %#v tells -0 from 0), or the error string.
func partialOutcome(pt Partial, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#v", pt)
}

// checkCachedPartial prices k through c and fails t unless the answer
// matches uncached PartialFor's.
func checkCachedPartial(t testing.TB, c *PartialCache, p *Params, db *tech.Database, k PartialKey) {
	t.Helper()
	want := partialOutcome(PartialFor(*p, db, k))
	var pt Partial
	err := CachedPartial(c, p, db, k, &pt)
	if got := partialOutcome(pt, err); got != want {
		t.Fatalf("%+v:\n got %s\nwant %s", k, got, want)
	}
}

// Keys outside the packed word: each pairs with an in-range key it
// would alias if the packing truncated it.
var (
	widePackingSchemes = []Scheme{-1, 4, 257, 1 << 32, 1<<32 + MCM}
	widePackingFlows   = []Flow{-1, 2, 1 << 16, 1<<16 + ChipFirst}
	widePackingDies    = []int{0, -1, 1 << 16, 1<<16 + 2, math.MaxInt}
)

// TestCachedPartialMatchesPartialFor prices every scheme × flow × 1–64
// dies × area, with and without footprint and interposer overrides,
// through a 64-entry table that evicts all the time, and requires
// uncached PartialFor's partial by %#v and error by message. The keys
// include failing geometries, organic schemes under ChipFirst (whose
// partial keeps flow 0), and schemes, flows and die counts outside the
// packed key, which must neither alias an in-range key nor be
// corrupted by one. Every key is priced twice, a miss then a hit, and
// revisited after the table has moved on.
func TestCachedPartialMatchesPartialFor(t *testing.T) {
	p := DefaultParams()
	big := DefaultParams()
	big.MaxSubstrateMM2, big.MaxInterposerMM2 = 1e9, 1e9
	db := tech.Default()
	schemes := append(append([]Scheme{}, Schemes...), widePackingSchemes...)
	flows := append([]Flow{ChipLast, ChipFirst}, widePackingFlows...)
	dies := widePackingDies
	for n := 1; n <= 64; n++ {
		dies = append(dies, n)
	}
	areas := []float64{0, math.Copysign(0, -1), 25, 150, 800, 3000, 1e5, -5, math.NaN()}
	overrides := []float64{0, 10, 5e3, 2e4, math.NaN()}
	stride := 1
	if testing.Short() {
		stride = 5
	}
	r := rand.New(rand.NewPCG(25, 1))
	for _, world := range []struct {
		name   string
		params *Params
	}{{"default", &p}, {"big packages", &big}} {
		c := NewPartialCache(64)
		var keys []PartialKey
		i, repeats := 0, int64(0)
		for _, s := range schemes {
			for _, f := range flows {
				for _, n := range dies {
					for _, a := range areas {
						if i++; i%stride != 0 {
							continue
						}
						k := PartialKey{Scheme: s, Flow: f, Dies: n, TotalDieAreaMM2: a}
						if r.IntN(2) == 0 {
							k.FootprintOverrideMM2 = overrides[r.IntN(len(overrides))]
							k.InterposerOverrideMM2 = overrides[r.IntN(len(overrides))]
						}
						keys = append(keys, k)
						// A key that packs and holds no NaN is found
						// by its repeat.
						if _, ok := k.pack(); ok && !math.IsNaN(a) &&
							!math.IsNaN(k.FootprintOverrideMM2) && !math.IsNaN(k.InterposerOverrideMM2) {
							repeats++
						}
						checkCachedPartial(t, c, world.params, db, k)
						checkCachedPartial(t, c, world.params, db, k)
					}
				}
			}
		}
		for _, j := range r.Perm(len(keys)) {
			checkCachedPartial(t, c, world.params, db, keys[j])
		}
		st := c.Stats()
		if st.Entries != 64 || st.Hits < repeats {
			t.Errorf("%s: %d keys left stats %+v, want 64 entries and at least %d hits",
				world.name, len(keys), st, repeats)
		}
		t.Logf("%s: %d keys, %d found by their repeat, stats %+v", world.name, len(keys), repeats, st)
	}
}

// TestWidePartialKeysSkipTheTable checks which keys pack, and that a
// key outside the packed word never touches the table: pricing it
// books no probe and stores nothing.
func TestWidePartialKeysSkipTheTable(t *testing.T) {
	p := DefaultParams()
	c := NewPartialCache(64)
	for _, tc := range []struct {
		k     PartialKey
		packs bool
	}{
		{PartialKey{Scheme: MCM, Flow: ChipFirst, Dies: 1<<16 - 1}, true},
		{PartialKey{Scheme: 1<<32 - 1, Flow: 1<<16 - 1, Dies: 0}, true},
		{PartialKey{Scheme: 1 << 32, Dies: 2}, false},
		{PartialKey{Scheme: 1<<32 + MCM, Dies: 2}, false},
		{PartialKey{Scheme: -1, Dies: 2}, false},
		{PartialKey{Scheme: InFO, Flow: 1 << 16, Dies: 2}, false},
		{PartialKey{Scheme: InFO, Flow: 1<<16 + ChipFirst, Dies: 2}, false},
		{PartialKey{Scheme: InFO, Flow: -1, Dies: 2}, false},
		{PartialKey{Scheme: MCM, Dies: 1 << 16}, false},
		{PartialKey{Scheme: MCM, Dies: 1<<16 + 2}, false},
		{PartialKey{Scheme: MCM, Dies: -1}, false},
		{PartialKey{Scheme: MCM, Dies: math.MaxInt}, false},
	} {
		if _, ok := tc.k.pack(); ok != tc.packs {
			t.Errorf("%+v: packs %v, want %v", tc.k, ok, tc.packs)
		}
		if !tc.packs {
			tc.k.TotalDieAreaMM2 = 200
			checkCachedPartial(t, c, &p, db(t), tc.k)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("wide keys left stats %+v, want none", st)
	}
}

// FuzzCachedPartial feeds arbitrary partial keys — any scheme, flow and
// die count, NaN, infinite and signed-zero areas — through one 64-entry
// table and requires uncached PartialFor's answer on a miss and on the
// hit that follows.
func FuzzCachedPartial(f *testing.F) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, s := range []struct {
		scheme, flow, dies          int
		area, footprint, interposer float64
	}{
		{int(MCM), int(ChipFirst), 4, 400, 0, 0},
		{int(SoC), int(ChipLast), 1, 600, 900, 0},
		{int(InFO), int(ChipFirst), 8, 1200, 0, 2000},
		{int(TwoPointFiveD), int(ChipLast), 2, 5000, 0, 0},
		{int(TwoPointFiveD), 2, 2, 300, 0, 0},
		{257, int(ChipLast), 4, 400, 0, 0},
		{1<<32 + int(MCM), int(ChipLast), 4, 400, 0, 0},
		{int(InFO), 1<<16 + int(ChipFirst), 4, 400, 0, 0},
		{int(MCM), int(ChipLast), 1<<16 + 4, 400, 0, 0},
		{int(MCM), int(ChipLast), -1, 400, 0, 0},
		{int(MCM), int(ChipLast), 2, nan, nan, nan},
		{int(MCM), int(ChipLast), 2, negZero, negZero, negZero},
		{int(InFO), int(ChipLast), 2, 0, 0, 0},
		{int(InFO), int(ChipLast), 2, math.Inf(1), 0, math.Inf(-1)},
	} {
		f.Add(s.scheme, s.flow, s.dies, s.area, s.footprint, s.interposer)
	}
	p := DefaultParams()
	db := tech.Default()
	c := NewPartialCache(64)
	f.Fuzz(func(t *testing.T, scheme, flow, dies int, area, footprint, interposer float64) {
		k := PartialKey{Scheme: Scheme(scheme), Flow: Flow(flow), Dies: dies,
			TotalDieAreaMM2: area, FootprintOverrideMM2: footprint, InterposerOverrideMM2: interposer}
		checkCachedPartial(t, c, &p, db, k)
		checkCachedPartial(t, c, &p, db, k)
	})
}
