package explore

import (
	"fmt"
	"slices"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// TestSingleMatchesPortfolio checks Single's uniform fast path against
// a one-member Portfolio on a cache-less reference evaluator, bit for
// bit (%+v prints every float in its shortest round-trip form) with
// errors compared by message, over the uniform shapes the generator
// emits: unknown node, zero and negative quantity, both flows, both
// policies, on cached and cache-less evaluators, cold and warm.
func TestSingleMatchesPortfolio(t *testing.T) {
	ref := evaluator(t)
	cached, err := NewEvaluatorWithCaches(tech.Default(), packaging.DefaultParams(), 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for name, ev := range map[string]*Evaluator{"cached": cached, "cache-less": evaluator(t)} {
		for _, node := range []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"} {
			for _, scheme := range packaging.Schemes {
				for _, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
					for _, area := range []float64{25, 300, 800, 1600} {
						for _, k := range []int{1, 2, 3, 5, 8} {
							for _, q := range []float64{0, 1, 500_000, -3} {
								for _, policy := range []nre.Policy{nre.PerSystemUnit, nre.PerInstance} {
									s, err := system.PartitionEqual("pt", node, area, k, scheme, dtod.Fraction{F: 0.10}, q)
									if err != nil {
										continue // unbuildable (SoC with k > 1)
									}
									s.Flow = flow
									if _, ok := system.AsUniform(s); !ok {
										t.Fatalf("PartitionEqual point not uniform: %s %v k=%d", node, scheme, k)
									}
									for pass := 0; pass < 2; pass++ {
										got, gerr := ev.Single(s, policy)
										m, werr := ref.Portfolio([]system.System{s}, policy)
										where := fmt.Sprintf("%s %s/%v/%v a=%v k=%d q=%v %v pass %d",
											name, node, scheme, flow, area, k, q, policy, pass)
										if (gerr == nil) != (werr == nil) {
											t.Fatalf("%s: err %v vs %v", where, gerr, werr)
										}
										if gerr != nil {
											if gerr.Error() != werr.Error() {
												t.Fatalf("%s: error %q, want %q", where, gerr, werr)
											}
											continue
										}
										if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", m[s.Name]); g != w {
											t.Fatalf("%s:\n got %s\nwant %s", where, g, w)
										}
										checked++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no successful points compared")
	}
}

var sinkTotal TotalCost

// TestSingleAllocations pins a warm-cache Single at one allocation, the
// Breakdown.Dies slice, on uniform systems and on systems the general
// path prices (a reused package envelope, a chiplet mounted several
// times), whose claim rows, per-unit NRE and package partial stay on
// the stack.
func TestSingleAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	ev, err := NewEvaluatorWithCaches(tech.Default(), packaging.DefaultParams(), 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		scheme := packaging.MCM
		if k == 1 {
			scheme = packaging.SoC
		}
		s, err := system.PartitionEqual("pt", "5nm", 800, k, scheme, dtod.Fraction{F: 0.10}, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's warm-up call fills the caches.
		if n := testing.AllocsPerRun(100, func() {
			if sinkTotal, err = ev.Single(s, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("k=%d: Single made %v allocations, want ≤ 1", k, n)
		}
	}
	families := reuseFamilies(t, packaging.DefaultParams())
	for _, name := range []string{"SCMS shared package", "FSMC 3x4"} {
		set := families[name]
		i := slices.IndexFunc(set, func(s system.System) bool { _, ok := system.AsUniform(s); return !ok })
		if i < 0 {
			t.Fatalf("%s: every member is uniform", name)
		}
		s := set[i]
		if n := testing.AllocsPerRun(100, func() {
			if sinkTotal, err = ev.Single(s, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s: Single made %v allocations, want ≤ 1", s.Name, n)
		}
	}
}
