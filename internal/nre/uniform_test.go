package nre

import (
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

func cachedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngineWithCaches(tech.Default(), packaging.DefaultParams(), packaging.NewPartialCache(512))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvaluateUniformMatchesPortfolio sweeps the uniform-partition
// shapes the generator emits and checks the memoized fast path against
// the full portfolio walk bit for bit — breakdowns with ==, errors by
// message — under both amortization policies, cold and warm.
func TestEvaluateUniformMatchesPortfolio(t *testing.T) {
	fast := cachedEngine(t)
	slow := engine(t)
	checked := 0
	for _, node := range []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"} {
		for _, scheme := range packaging.Schemes {
			for _, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
				for _, area := range []float64{25, 300, 800, 1600} {
					for _, k := range []int{1, 2, 3, 5, 8} {
						for _, q := range []float64{0, 1, 500_000, -3} {
							for _, policy := range []Policy{PerSystemUnit, PerInstance} {
								s, err := system.PartitionEqual("pt", node, area, k, scheme, dtod.Fraction{F: 0.10}, q)
								if err != nil {
									continue // unbuildable (SoC with k > 1)
								}
								s.Flow = flow
								u, ok := system.AsUniform(s)
								if !ok {
									t.Fatalf("PartitionEqual point not uniform: %s %v k=%d", node, scheme, k)
								}
								for pass := 0; pass < 2; pass++ {
									got, gerr := fast.EvaluateUniform(s, u, policy)
									wantRes, werr := slow.Single(s, policy)
									if (gerr == nil) != (werr == nil) {
										t.Fatalf("%s/%v/%v k=%d q=%v %v pass %d: err %v vs %v",
											node, scheme, flow, k, q, policy, pass, gerr, werr)
									}
									if gerr != nil {
										if gerr.Error() != werr.Error() {
											t.Fatalf("%s/%v/%v k=%d q=%v %v: error %q, want %q",
												node, scheme, flow, k, q, policy, gerr, werr)
										}
										continue
									}
									want := wantRes.PerUnit[s.Name]
									if got != want {
										t.Fatalf("%s/%v/%v k=%d q=%v %v pass %d:\n got %+v\nwant %+v",
											node, scheme, flow, k, q, policy, pass, got, want)
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
	if checked == 0 {
		t.Fatal("no successful points compared")
	}
}
