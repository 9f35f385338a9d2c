package explore

import (
	"testing"

	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

var sinkCosts map[string]TotalCost

// TestPortfolioAllocations pins a warm-cache Portfolio of the paper's
// §5 reuse families at no more than 5 allocations per system: one
// Breakdown.Dies slice per system, and the design table, the per-unit
// slice and the result map per portfolio.
func TestPortfolioAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	params := packaging.DefaultParams()
	ev, err := NewEvaluatorWithCaches(tech.Default(), params, 4096, DefaultPartialsCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string, f func() ([]system.System, error)) (string, []system.System) {
		set, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return name, set
	}
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
		name, set := build(f.name, f.f)
		families[name] = set
	}
	var twins []system.System
	for _, s := range families["FSMC 3x4"] {
		twins = append(twins, reuse.SoCEquivalent(s, "5nm"))
	}
	families["FSMC 3x4 SoC twins"] = twins

	for name, set := range families {
		// AllocsPerRun's warm-up call fills the caches.
		n := testing.AllocsPerRun(50, func() {
			if sinkCosts, err = ev.Portfolio(set, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
		})
		if per := n / float64(len(set)); per > 5 {
			t.Errorf("%s: %v allocations for %d systems, %.2f per system, want ≤ 5", name, n, len(set), per)
		} else {
			t.Logf("%s: %.2f allocations per system", name, per)
		}
	}
}
