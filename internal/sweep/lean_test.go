package sweep

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// TestLeanWalkEquivalence drives the lean generator beside the full
// one across sharded, filtered and multi-axis grids: same survivors in
// the same order, same Stats, and a DieAreaMM2 stamp that is bitwise
// equal to the die area of the system the full walk built.
func TestLeanWalkEquivalence(t *testing.T) {
	grids := []Grid{
		testGrid(),
		{
			Name:       "multi",
			Nodes:      []string{"5nm", "7nm"},
			Schemes:    []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO},
			AreasMM2:   []float64{0.5, 100, 400, 858, 1500},
			Counts:     []int{1, 2, 3, 8},
			Quantities: []float64{1000, 1_000_000},
			D2D:        dtod.Fraction{F: 0.25},
		},
		{
			Name:       "nod2d",
			Nodes:      []string{"7nm"},
			Schemes:    []packaging.Scheme{packaging.MCM},
			AreasMM2:   []float64{200, 600},
			Counts:     []int{1, 2, 5},
			Quantities: []float64{500},
		},
	}
	params := packaging.DefaultParams()
	filterSets := [][]Filter{nil, {ReticleFit()}, {ReticleFit(), InterposerFit(params)}}
	for gi, g := range grids {
		for fi, filters := range filterSets {
			for _, shards := range []int{1, 3} {
				for shard := 0; shard < shards; shard++ {
					full := g.Points(filters...).Shard(shard, shards)
					lean := g.Points(filters...).Lean().Shard(shard, shards)
					fullPts := drainPoints(full)
					leanPts := drainPoints(lean)
					if len(fullPts) != len(leanPts) {
						t.Fatalf("grid %d filters %d shard %d/%d: %d full vs %d lean points",
							gi, fi, shard, shards, len(fullPts), len(leanPts))
					}
					for i := range fullPts {
						f, l := fullPts[i], leanPts[i]
						if l.System.Name != "" {
							t.Fatalf("lean point %q carries a materialized system", l.ID)
						}
						l.System = f.System // equalize the one intended difference
						if !reflect.DeepEqual(f, l) {
							t.Fatalf("grid %d filters %d shard %d/%d point %d: full %+v vs lean %+v",
								gi, fi, shard, shards, i, f, l)
						}
						if len(f.System.Placements) > 0 {
							if die := f.System.Placements[0].Chiplet.DieArea(); die != f.DieAreaMM2 {
								t.Fatalf("point %q: stamped DieAreaMM2 %v != system die area %v",
									f.ID, f.DieAreaMM2, die)
							}
						}
					}
					if fs, ls := full.Stats(), lean.Stats(); fs != ls {
						t.Fatalf("grid %d filters %d shard %d/%d: stats %+v vs %+v",
							gi, fi, shard, shards, fs, ls)
					}
				}
			}
		}
	}
}

func drainPoints(it *Generator) []Point {
	var out []Point
	buf := make([]Point, 7) // odd slab size to exercise partial fills
	for {
		n := it.NextSlab(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// fuzzNodes and fuzzSchemes are the axis values FuzzGridPoints picks
// from by bit mask.
var (
	fuzzNodes   = []string{"5nm", "7nm", "14nm"}
	fuzzSchemes = []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
)

// fuzzGrid builds a small grid from FuzzGridPoints' inputs: nodes and
// schemes chosen by bit mask, two-value area, count and quantity axes,
// and dup's bits repeating each axis's first value.
func fuzzGrid(nodes, schemes, dup uint8, a1, a2 float64, k1, k2 int, q1, q2 float64) Grid {
	g := Grid{Name: "fz", AreasMM2: []float64{a1, a2}, Counts: []int{k1, k2},
		Quantities: []float64{q1, q2}, D2D: dtod.Fraction{F: 0.1}}
	for i, n := range fuzzNodes {
		if nodes&(1<<i) != 0 {
			g.Nodes = append(g.Nodes, n)
		}
	}
	for i, s := range fuzzSchemes {
		if schemes&(1<<i) != 0 {
			g.Schemes = append(g.Schemes, s)
		}
	}
	for i, ax := range []func(){
		func() { g.Nodes = append(g.Nodes, g.Nodes...) },
		func() { g.Schemes = append(g.Schemes, g.Schemes...) },
		func() { g.AreasMM2[1] = g.AreasMM2[0] },
		func() { g.Counts[1] = g.Counts[0] },
		func() { g.Quantities[1] = g.Quantities[0] },
	} {
		if dup&(1<<i) != 0 {
			ax()
		}
	}
	return g
}

// FuzzGridPoints walks small hostile grids — counts near and past
// system.MaxPartitionCount, NaN, ±Inf and 1e308 areas and quantities,
// duplicate axes, SoC with k > 1 — with the full and the lean
// generator. Generation must never panic, and on a grid Validate
// accepts, the first 64 points of both walks must carry equal IDs and
// scalars and leave equal Stats.
func FuzzGridPoints(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	type seed struct {
		nodes, schemes, dup uint8
		a1, a2              float64
		k1, k2              int
		q1, q2              float64
	}
	for _, s := range []seed{
		{1, 2, 0, 400, 800, 1, 4, 1e6, 2e6},
		{7, 15, 0, 100, 858, 1, 8, 1e3, 1e5},
		{1, 2, 0, 100, 100.5, system.MaxPartitionCount - 1, system.MaxPartitionCount, 1e5, 1e6},
		{1, 2, 0, 100, 200, system.MaxPartitionCount, system.MaxPartitionCount + 1, 1e5, 1e6},
		{1, 2, 0, 100, 200, math.MaxInt - 1, math.MaxInt, 1e5, 1e6},
		{1, 2, 0, 100, 200, 1_000_000_000_000, 2, 1e5, 1e6},
		{1, 2, 0, nan, 400, 1, 2, 1e5, nan},
		{1, 2, 0, inf, -inf, 1, 2, inf, -inf},
		{1, 2, 0, 1e308, 400, 1, 3, 1e308, 1e5},
		{3, 3, 31, 400, 800, 2, 3, 1e5, 2e5},
		{1, 1, 0, 400, 800, 1, 2, 1e5, 2e5},
		{1, 1, 0, 400, 800, 0, -2, 1e5, 2e5},
	} {
		f.Add(s.nodes, s.schemes, s.dup, s.a1, s.a2, s.k1, s.k2, s.q1, s.q2)
	}
	params := packaging.DefaultParams()
	f.Fuzz(func(t *testing.T, nodes, schemes, dup uint8, a1, a2 float64, k1, k2 int, q1, q2 float64) {
		g := fuzzGrid(nodes, schemes, dup, a1, a2, k1, k2, q1, q2)
		valid := g.Validate() == nil
		full := g.Points(ReticleFit(), InterposerFit(params))
		lean := g.Points(ReticleFit(), InterposerFit(params)).Lean()
		for i := 0; i < 64; i++ {
			fp, fok := full.Next()
			lp, lok := lean.Next()
			if !valid {
				if !fok && !lok {
					break
				}
				continue
			}
			if fok != lok {
				t.Fatalf("point %d: full walk %v, lean walk %v", i, fok, lok)
			}
			if !fok {
				break
			}
			if fp.System.Name != fp.ID || lp.System.Name != "" {
				t.Fatalf("point %d: full system %q for ID %q, lean system %q", i, fp.System.Name, fp.ID, lp.System.Name)
			}
			fp.System = system.System{}
			if fmt.Sprintf("%#v", fp) != fmt.Sprintf("%#v", lp) {
				t.Fatalf("point %d: full %q %+v, lean %q %+v", i, fp.ID, fp, lp.ID, lp)
			}
		}
		if valid && full.Stats() != lean.Stats() {
			t.Fatalf("stats: full %+v, lean %+v", full.Stats(), lean.Stats())
		}
	})
}
