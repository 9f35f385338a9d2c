package cost

import (
	"fmt"
	"testing"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
)

// refReSlow is reSlow as it was before it priced packages from the
// partial cache: dies walked on a Dies() copy into area and KGD
// slices, and the package priced uncached by packaging.Package. It is
// the reference model TestReSlowMatchesReference checks against.
func refReSlow(e *Engine, s system.System) (Breakdown, error) {
	if err := s.Validate(e.db); err != nil {
		return Breakdown{}, err
	}
	dies := s.Dies()
	var b Breakdown
	areas := make([]float64, len(dies))
	kgds := make([]float64, len(dies))
	b.Dies = make([]DieCost, len(dies))
	var tally cacheTally
	for i, c := range dies {
		var dc DieCost
		if err := e.dieCost(&c, c.DieArea(), &tally, &dc); err != nil {
			return Breakdown{}, err
		}
		b.Dies[i] = dc
		b.RawChips += dc.Raw
		b.ChipDefects += dc.Raw * (1/dc.Yield - 1)
		areas[i] = dc.AreaMM2
		kgds[i] = dc.KGD
	}
	e.cache.Note(tally.hits, tally.misses)

	asm := packaging.Assembly{DieAreasMM2: areas, KGDCosts: kgds}
	if s.Envelope != nil {
		asm.FootprintOverrideMM2 = s.Envelope.FootprintMM2
		asm.InterposerOverrideMM2 = s.Envelope.InterposerAreaMM2
	}
	pkg, err := packaging.Package(e.params, e.db, s.Scheme, s.Flow, asm)
	if err != nil {
		return Breakdown{}, err
	}
	b.Packaging = pkg
	b.RawPackage = pkg.RawPackage
	b.PackageDefects = pkg.PackageDefects
	b.WastedKGD = pkg.WastedKGD
	return b, nil
}

// TestReSlowMatchesReference compares reSlow with the reference on the
// systems of random portfolios: breakdowns by their %#v bytes (NaN
// defeats reflect.DeepEqual), errors by message, and the KGD cache
// counters after every system. The current engine prices packages
// through a small partial cache that evicts and replays cached errors;
// both KGD caches are small enough to evict too.
func TestReSlowMatchesReference(t *testing.T) {
	db := systemtest.DB()
	params := packaging.DefaultParams()
	ref, err := NewEngineWithCache(db, params, 64)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewEngineWithCaches(db, params, 64, packaging.NewPartialCache(64))
	if err != nil {
		t.Fatal(err)
	}
	gen := systemtest.New(3)
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		for _, s := range gen.Portfolio() {
			want, werr := refReSlow(ref, s)
			var got Breakdown
			gerr := cur.reSlow(&s, &got)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("draw %d, %+v:\n got %v\nwant %v", i, s, gerr, werr)
			}
			if g, w := cur.CacheStats(), ref.CacheStats(); g != w {
				t.Fatalf("draw %d, %+v: KGD cache %+v, want %+v", i, s, g, w)
			}
			if werr != nil {
				failed++
				continue
			}
			ok++
			if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
				t.Fatalf("draw %d, %+v:\n got %s\nwant %s", i, s, g, w)
			}
		}
	}
	if ok < n/2 || failed < n/5 {
		t.Fatalf("draws too narrow: %d systems priced, %d failed", ok, failed)
	}
	t.Logf("%d systems priced, %d failed", ok, failed)
}
