package sweep

import (
	"reflect"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
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
