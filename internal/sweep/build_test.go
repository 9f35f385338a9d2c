package sweep

import (
	"fmt"
	"math/rand"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// refPoint is one point of a reference walk, its candidate number and
// its %#v form.
type refPoint struct {
	cand int
	p    Point
	gv   string
}

// referenceWalk enumerates g's candidates in odometer order with plain
// loops and builds each surviving point from Grid.PointID and the
// package-level PartitionEqual or Monolithic: the walk a generator
// with the given filters must reproduce, before any shard or
// selection.
func referenceWalk(t *testing.T, g Grid, filters ...Filter) []refPoint {
	t.Helper()
	d2d := g.D2D
	if d2d == nil {
		d2d = dtod.None{}
	}
	var out []refPoint
	cand := -1
	for _, node := range g.Nodes {
		for si, scheme := range g.Schemes {
			for _, q := range g.Quantities {
				for _, a := range g.AreasMM2 {
				counts:
					for _, k := range g.Counts {
						cand++
						if k == 1 {
							if si > 0 {
								continue // the monolithic twin, emitted once
							}
							scheme = packaging.SoC
						} else {
							scheme = g.Schemes[si]
						}
						id := g.PointID(node, scheme, a, k, q)
						var sys system.System
						if k == 1 {
							sys = system.Monolithic(id, node, a, q)
						} else {
							var err error
							if sys, err = system.PartitionEqual(id, node, a, k, scheme, d2d, q); err != nil {
								t.Fatalf("candidate %d: %v", cand, err)
							}
						}
						p := Point{ID: id, Node: node, Scheme: scheme, AreaMM2: a, K: k, Quantity: q,
							DieAreaMM2: sys.Placements[0].Chiplet.DieArea(), System: sys}
						for _, f := range filters {
							if !f(p) {
								continue counts
							}
						}
						out = append(out, refPoint{cand: cand, p: p, gv: fmt.Sprintf("%#v", p)})
					}
				}
			}
		}
	}
	return out
}

// randomBuildGrid draws a grid with one to three values on the node,
// scheme and quantity axes, a few areas, and counts that now and then
// run past 64 and past a full placement chunk.
func randomBuildGrid(rng *rand.Rand, trial int) Grid {
	nodes := []string{"5nm", "7nm", "12nm"}
	schemes := []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
	g := Grid{
		Name:    fmt.Sprintf("build%d", trial),
		Nodes:   nodes[:1+rng.Intn(len(nodes))],
		Schemes: schemes[:1+rng.Intn(len(schemes))],
	}
	if trial%3 == 0 {
		g.D2D = dtod.Fraction{F: 0.1}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		g.Quantities = append(g.Quantities, float64(1000*(len(g.Quantities)+1)+rng.Intn(1000)))
	}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		g.AreasMM2 = append(g.AreasMM2, 40+float64(len(g.AreasMM2))*211.5+rng.Float64())
	}
	for k := 1 + rng.Intn(2); k <= 2+rng.Intn(8); k++ {
		g.Counts = append(g.Counts, k)
	}
	if trial%4 == 1 {
		g.Quantities = g.Quantities[:1]
		g.Counts = append(g.Counts, 63, 64, 65)
	}
	if trial%8 == 3 {
		// Kept to a few combinations: each such point is a long %#v.
		g.Nodes, g.Quantities, g.AreasMM2 = g.Nodes[:1], g.Quantities[:1], g.AreasMM2[:1]
		g.Counts = append(g.Counts, 100, 290)
	}
	return g
}

// TestGeneratorBuildsLikePackageBuilders walks seeded random grids with
// full generators — plain, in slabs, sharded, selected, restored from
// a mid-walk cursor and all of these at once — and checks that every
// point prints %#v-identical to the one the reference walk builds from
// Grid.PointID and the package-level PartitionEqual or Monolithic: the
// same candidates, IDs, scalars and systems, with Point.ID equal to
// System.Name.
func TestGeneratorBuildsLikePackageBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	trials := 48
	if testing.Short() {
		trials = 12
	}
	params := packaging.DefaultParams()
	checked := 0
	for trial := 0; trial < trials; trial++ {
		g := randomBuildGrid(rng, trial)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		filters := []Filter{ReticleFit(), InterposerFit(params)}
		ref := referenceWalk(t, g, filters...)
		selected := make([]bool, g.Size())
		for i := range selected {
			selected[i] = rng.Intn(4) != 0
		}
		type walk struct {
			name         string
			shard, of    int
			sel          bool
			slab         int // 0 walks with Next
			restoreAfter int // points before a cursor is taken; -1 never
		}
		walks := []walk{
			{"next", 0, 1, false, 0, -1},
			{"slab", 0, 1, false, 1 + rng.Intn(40), -1},
			{"shard", rng.Intn(3), 3, false, 0, -1},
			{"select", 0, 1, true, 0, -1},
			{"restore", 0, 1, false, 0, rng.Intn(len(ref) + 1)},
			{"all", 1, 2, true, 1 + rng.Intn(9), rng.Intn(len(ref)/2 + 1)},
		}
		for _, w := range walks {
			var want []refPoint
			for _, r := range ref {
				if r.cand%w.of == w.shard && (!w.sel || selected[r.cand]) {
					want = append(want, r)
				}
			}
			newGen := func() *Generator {
				gen := g.Points(filters...).Shard(w.shard, w.of)
				if w.sel {
					gen.Select(func(c int) bool { return selected[c] })
				}
				return gen
			}
			gen := newGen()
			var got []Point
			pull := func(gen *Generator, limit int) {
				buf := make([]Point, max(w.slab, 1))
				for limit < 0 || len(got) < limit {
					if w.slab == 0 {
						p, ok := gen.Next()
						if !ok {
							return
						}
						got = append(got, p)
						continue
					}
					size := w.slab
					if limit >= 0 {
						size = min(size, limit-len(got))
					}
					n := gen.NextSlab(buf[:size])
					if n == 0 {
						return
					}
					got = append(got, buf[:n]...)
				}
			}
			if w.restoreAfter >= 0 {
				pull(gen, min(w.restoreAfter, len(want)))
				restored, err := newGen().Restore(gen.Cursor())
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, w.name, err)
				}
				gen = restored
			}
			pull(gen, -1)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s walk: %d points, reference %d", trial, w.name, len(got), len(want))
			}
			for i, p := range got {
				if g, r := fmt.Sprintf("%#v", p), want[i].gv; g != r {
					t.Fatalf("trial %d %s walk, point %d:\n got %s\nwant %s", trial, w.name, i, g, r)
				}
				if p.ID != p.System.Name {
					t.Fatalf("trial %d %s walk: ID %q, system %q", trial, w.name, p.ID, p.System.Name)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d points checked", checked)
	}
}

// cloneSystem deep-copies s's placements and module slices into fresh
// exact-size arrays.
func cloneSystem(s system.System) system.System {
	s.Placements = append([]system.Placement(nil), s.Placements...)
	for i := range s.Placements {
		c := &s.Placements[i].Chiplet
		c.Modules = append([]system.Module(nil), c.Modules...)
	}
	return s
}

// vandalize writes through every placement and module of p's system
// and appends to each of those slices, marking each change with tag.
func vandalize(p *Point, tag int) {
	s := &p.System
	for i := range s.Placements {
		pl := &s.Placements[i]
		pl.Count = -tag
		pl.Chiplet.Modules[0].AreaMM2 = -float64(tag)
		pl.Chiplet.Modules = append(pl.Chiplet.Modules, system.Module{Name: fmt.Sprintf("appended-module-%d", tag)})
	}
	s.Placements = append(s.Placements, system.Placement{
		Chiplet: system.Chiplet{Name: fmt.Sprintf("appended-chiplet-%d", tag)}, Count: tag})
}

// TestPointSlicesIsolated walks grids whose points share placement and
// module chunks — several chunks' worth, with points wider than a
// chunk among them — then writes through and appends to every point's
// placements and every chiplet's modules in turn. Each point must
// change exactly as a deep copy of it changes under the same edits,
// and no other point may change at all: every slice is capped at its
// length, so no write or append reaches a neighbour in the chunk.
func TestPointSlicesIsolated(t *testing.T) {
	grids := []Grid{
		{
			Name: "iso", Nodes: []string{"5nm", "7nm"},
			Schemes:    []packaging.Scheme{packaging.MCM, packaging.InFO},
			AreasMM2:   []float64{100, 300, 500, 700, 900},
			Counts:     []int{1, 2, 3, 4, 5, 6, 7, 8},
			Quantities: []float64{1e5, 1e6},
			D2D:        dtod.Fraction{F: 0.1},
		},
		{
			Name: "wide", Nodes: []string{"7nm"},
			Schemes:    []packaging.Scheme{packaging.MCM},
			AreasMM2:   []float64{400, 800},
			Counts:     []int{1, 3, 64, 200, 300, 2},
			Quantities: []float64{1e6},
		},
	}
	for _, g := range grids {
		pts := drain(t, g.Points())
		placements := 0
		for _, p := range pts {
			placements += len(p.System.Placements)
		}
		if placements < 1000 && g.Name == "iso" {
			t.Fatalf("grid %q: %d placements, too few to span several chunks", g.Name, placements)
		}
		state := make([]string, len(pts))
		for i := range pts {
			state[i] = fmt.Sprintf("%#v", pts[i])
		}
		for i := range pts {
			p := &pts[i]
			if got := fmt.Sprintf("%#v", *p); got != state[i] {
				t.Fatalf("grid %q: point %d (%s) changed before its own edits:\n got %s\nwant %s",
					g.Name, i, p.ID, got, state[i])
			}
			if cap(p.System.Placements) != len(p.System.Placements) {
				t.Fatalf("grid %q point %s: %d placements with cap %d", g.Name, p.ID,
					len(p.System.Placements), cap(p.System.Placements))
			}
			for _, pl := range p.System.Placements {
				if cap(pl.Chiplet.Modules) != len(pl.Chiplet.Modules) {
					t.Fatalf("grid %q point %s: %d modules with cap %d", g.Name, p.ID,
						len(pl.Chiplet.Modules), cap(pl.Chiplet.Modules))
				}
			}
			twin := *p
			twin.System = cloneSystem(p.System)
			vandalize(p, i+1)
			vandalize(&twin, i+1)
			state[i] = fmt.Sprintf("%#v", twin)
			if got := fmt.Sprintf("%#v", *p); got != state[i] {
				t.Fatalf("grid %q point %s: edited in place\n got %s\nwant %s", g.Name, p.ID, got, state[i])
			}
		}
		for i := range pts {
			if got := fmt.Sprintf("%#v", pts[i]); got != state[i] {
				t.Fatalf("grid %q: point %d (%s) changed after its own edits:\n got %s\nwant %s",
					g.Name, i, pts[i].ID, got, state[i])
			}
		}
	}
}
