package cost

import (
	"reflect"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// fastEngine builds an engine with both the KGD cache and the shared
// packaging partial cache enabled — the configuration sweeps run under.
func fastEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngineWithCaches(tech.Default(), packaging.DefaultParams(), 256, packaging.NewPartialCache(512))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestUniformFastPathMatchesSlow sweeps the uniform-partition shapes
// the generator emits and checks the closed-form fast path against the
// general placement walk bit for bit — values with ==, errors by
// message. Every point runs twice so both the cold and the warm cache
// path are covered.
func TestUniformFastPathMatchesSlow(t *testing.T) {
	fast := fastEngine(t)
	slow := engine(t)
	checked := 0
	for _, node := range []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"} {
		for _, scheme := range packaging.Schemes {
			for _, flow := range []packaging.Flow{packaging.ChipLast, packaging.ChipFirst} {
				for _, area := range []float64{25, 300, 800, 1600} {
					for _, k := range []int{1, 2, 3, 5, 8} {
						for _, q := range []float64{0, 1, 500_000, -3} {
							s, err := system.PartitionEqual("pt", node, area, k, scheme, dtod.Fraction{F: 0.10}, q)
							if err != nil {
								continue // unbuildable (SoC with k > 1)
							}
							s.Flow = flow
							if _, ok := system.AsUniform(s); !ok {
								t.Fatalf("PartitionEqual point not uniform: %s %v k=%d", node, scheme, k)
							}
							for pass := 0; pass < 2; pass++ {
								got, gerr := fast.RE(s)
								var want Breakdown
								werr := slow.reSlow(&s, &want)
								if (gerr == nil) != (werr == nil) {
									t.Fatalf("%s/%v/%v k=%d q=%v pass %d: err %v vs %v", node, scheme, flow, k, q, pass, gerr, werr)
								}
								if gerr != nil {
									if gerr.Error() != werr.Error() {
										t.Fatalf("%s/%v/%v k=%d q=%v: error %q, want %q", node, scheme, flow, k, q, gerr, werr)
									}
									continue
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s/%v/%v k=%d q=%v pass %d:\n got %+v\nwant %+v", node, scheme, flow, k, q, pass, got, want)
								}
								checked++
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

// TestUniformFastPathCounters checks that the fast path accounts KGD
// cache probes exactly like the slow path would: k probes per
// evaluation (1 miss + k−1 hits cold, k hits warm).
func TestUniformFastPathCounters(t *testing.T) {
	e := fastEngine(t)
	s, err := system.PartitionEqual("pt", "5nm", 800, 4, packaging.MCM, dtod.Fraction{F: 0.10}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RE(s); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("cold stats = %+v, want 1 miss + 3 hits", st)
	}
	if _, err := e.RE(s); err != nil {
		t.Fatal(err)
	}
	st = e.CacheStats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("warm stats = %+v, want 1 miss + 7 hits", st)
	}
}

// TestUniformFastPathDisabledCaches checks the fast path degrades
// gracefully (and stays bit-identical) with all caches disabled.
func TestUniformFastPathDisabledCaches(t *testing.T) {
	fast, err := NewEngineWithCaches(tech.Default(), packaging.DefaultParams(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := engine(t)
	s, err := system.PartitionEqual("pt", "7nm", 600, 3, packaging.TwoPointFiveD, dtod.Fraction{F: 0.10}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.RE(s)
	if err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	if err := slow.reSlow(&s, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cacheless fast path diverges:\n got %+v\nwant %+v", got, want)
	}
}
