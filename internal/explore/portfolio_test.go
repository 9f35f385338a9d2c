package explore

import (
	"strings"
	"testing"

	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

var sinkCosts map[string]TotalCost

// reuseFamilies builds the paper's §5 reuse families the portfolio
// tests and benchmarks price: SCMS and OCME with and without a shared
// package, FSMC with three and two chiplet types in four sockets, and
// the monolithic SoC twins of the FSMC 3x4 family.
func reuseFamilies(tb testing.TB, params packaging.Params) map[string][]system.System {
	tb.Helper()
	scms := func(reusePkg bool) func() ([]system.System, error) {
		return func() ([]system.System, error) {
			return reuse.SCMS(reuse.SCMSConfig{Node: "7nm", ModuleAreaMM2: 150, Counts: []int{1, 2, 4},
				Scheme: packaging.MCM, QuantityPerSystem: 5e5, ReusePackage: reusePkg, Params: params})
		}
	}
	ocme := func(reusePkg bool) func() ([]system.System, error) {
		return func() ([]system.System, error) {
			return reuse.OCME(reuse.OCMEConfig{Node: "7nm", CenterNode: "14nm", SocketAreaMM2: 120,
				Scheme: packaging.TwoPointFiveD, QuantityPerSystem: 5e5, ReusePackage: reusePkg, Params: params})
		}
	}
	fsmc := func(types int) func() ([]system.System, error) {
		return func() ([]system.System, error) {
			return reuse.FSMC(reuse.FSMCConfig{Node: "5nm", ModuleAreaMM2: 100, Types: types, Sockets: 4,
				Scheme: packaging.InFO, QuantityPerSystem: 5e5, Params: params})
		}
	}
	families := map[string][]system.System{}
	for _, f := range []struct {
		name string
		f    func() ([]system.System, error)
	}{
		{"SCMS", scms(false)}, {"SCMS shared package", scms(true)},
		{"OCME", ocme(false)}, {"OCME shared package", ocme(true)},
		{"FSMC 3x4", fsmc(3)}, {"FSMC 2x4", fsmc(2)},
	} {
		set, err := f.f()
		if err != nil {
			tb.Fatalf("%s: %v", f.name, err)
		}
		families[f.name] = set
	}
	var twins []system.System
	for _, s := range families["FSMC 3x4"] {
		twins = append(twins, reuse.SoCEquivalent(s, "5nm"))
	}
	families["FSMC 3x4 SoC twins"] = twins
	var scmsTwins []system.System
	for _, s := range families["SCMS"] {
		scmsTwins = append(scmsTwins, reuse.SoCEquivalent(s, "7nm"))
	}
	families["SCMS SoC twins"] = scmsTwins
	return families
}

// TestPortfolioAllocations pins a warm-cache Portfolio of the paper's
// §5 reuse families at no more than one allocation per system, its
// entry in the result map (a TotalCost is too wide for the map to hold
// inline), plus five per portfolio: the one block every member's
// Breakdown.Dies is carved from, and the result map's tables. The
// package partials and per-unit NRE the walk hands to RE, and the
// families' claim rows (up to 256), stay on the stack.
func TestPortfolioAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	params := packaging.DefaultParams()
	ev, err := NewEvaluatorWithCaches(tech.Default(), params, 4096, DefaultPartialsCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	families := reuseFamilies(t, params)
	for name, set := range families {
		// AllocsPerRun's warm-up call fills the caches.
		n := testing.AllocsPerRun(50, func() {
			if sinkCosts, err = ev.Portfolio(set, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(len(set) + 5); n > limit {
			t.Errorf("%s: %v allocations for %d systems, want ≤ %v", name, n, len(set), limit)
		} else {
			t.Logf("%s: %v allocations for %d systems", name, n, len(set))
		}
	}
}

// BenchmarkPortfolio prices each §5 reuse family on a warm evaluator,
// reporting ns per system alongside ns per portfolio.
func BenchmarkPortfolio(b *testing.B) {
	params := packaging.DefaultParams()
	families := reuseFamilies(b, params)
	for _, name := range []string{"SCMS", "SCMS shared package", "SCMS SoC twins", "OCME", "OCME shared package",
		"FSMC 2x4", "FSMC 3x4", "FSMC 3x4 SoC twins"} {
		set := families[name]
		b.Run(strings.ReplaceAll(name, " ", "-"), func(b *testing.B) {
			ev, err := NewEvaluatorWithCaches(tech.Default(), params, 4096, DefaultPartialsCacheSize)
			if err != nil {
				b.Fatal(err)
			}
			if sinkCosts, err = ev.Portfolio(set, nre.PerSystemUnit); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkCosts, _ = ev.Portfolio(set, nre.PerSystemUnit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set)), "ns/system")
		})
	}
}
