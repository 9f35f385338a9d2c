package sweep

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
)

// referenceID is the point-ID format spelled out with fmt: the grid
// name, then a segment per multi-valued node, scheme and quantity axis,
// then the area and count.
func referenceID(g Grid, p Point) string {
	id := g.Name
	if len(g.Nodes) > 1 {
		id += "-" + p.Node
	}
	if len(g.Schemes) > 1 {
		id += "-" + p.Scheme.String()
	}
	if len(g.Quantities) > 1 {
		id += fmt.Sprintf("-q%g", p.Quantity)
	}
	return id + fmt.Sprintf("-a%g-k%d", p.AreaMM2, p.K)
}

// TestGeneratorPointIDs checks, on random grids, that every point the
// generator labels from its memoized axis values carries the ID
// Grid.PointID builds from the point's own axis values, and the fmt
// reference form — across single- and multi-valued axes, the k = 1
// SoC relabel of multi-scheme grids, and full, lean, sharded and
// restored walks. Full points must also name their system by the ID.
func TestGeneratorPointIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nodePool := []string{"5nm", "7nm", "12nm", "28nm"}
	schemePool := []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
	pick := func(n int) int { return 1 + rng.Intn(n) }
	checked := 0
	for trial := 0; trial < 40; trial++ {
		g := Grid{
			Name:    fmt.Sprintf("id%d", trial),
			Nodes:   nodePool[:pick(len(nodePool))],
			Schemes: schemePool[:pick(len(schemePool))],
			D2D:     dtod.Fraction{F: 0.10},
		}
		if trial%10 == 9 {
			// Longer than the stack buffer IDs are assembled in.
			g.Name = strings.Repeat("long-grid-name-", 8)
		}
		for i := pick(3); i > 0; i-- {
			g.Quantities = append(g.Quantities, float64(rng.Intn(5)+1)*1e5+float64(len(g.Quantities)))
		}
		for i := pick(5); i > 0; i-- {
			g.AreasMM2 = append(g.AreasMM2, 50+float64(len(g.AreasMM2))*173.25+rng.Float64())
		}
		// Mostly from k = 1, whose points are relabelled SoC.
		lo := 1 + rng.Intn(3)/2
		hi := lo + rng.Intn(6)
		for k := lo; k <= hi; k++ {
			g.Counts = append(g.Counts, k)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		walks := map[string]func() *Generator{
			"full":      func() *Generator { return g.Points(ReticleFit()) },
			"lean":      func() *Generator { return g.Points(ReticleFit()).Lean() },
			"shard 1/3": func() *Generator { return g.Points(ReticleFit()).Shard(1, 3) },
			"restored": func() *Generator {
				gen, err := g.Points(ReticleFit()).Restore(Cursor{Candidate: g.Size() / 2})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				return gen
			},
		}
		for name, walk := range walks {
			for _, p := range drain(t, walk()) {
				if want := g.PointID(p.Node, p.Scheme, p.AreaMM2, p.K, p.Quantity); p.ID != want {
					t.Fatalf("trial %d %s walk: ID %q, PointID %q", trial, name, p.ID, want)
				}
				if want := referenceID(g, p); p.ID != want {
					t.Fatalf("trial %d %s walk: ID %q, reference form %q", trial, name, p.ID, want)
				}
				if name != "lean" && p.System.Name != p.ID {
					t.Fatalf("trial %d %s walk: system %q for point %q", trial, name, p.System.Name, p.ID)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no points checked")
	}
}

var sinkPoint Point

// TestGeneratorNextAllocations pins a full walk of a grid with
// multi-valued node, scheme and quantity axes at one allocation per
// point: the string that holds the ID and every chiplet and module
// name. The placement and module chunks are shared by dozens of points,
// so they stay below one allocation per point.
func TestGeneratorNextAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	g := Grid{
		Name:       "alloc",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD},
		AreasMM2:   []float64{300, 500},
		Counts:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		Quantities: []float64{1e5, 1e6},
		D2D:        dtod.Fraction{F: 0.10},
	}
	gen := g.Points(ReticleFit(), InterposerFit(packaging.DefaultParams()))
	n := testing.AllocsPerRun(100, func() {
		p, ok := gen.Next()
		if !ok {
			t.Fatal("grid exhausted")
		}
		sinkPoint = p
	})
	if n > 1 {
		t.Errorf("Generator.Next: %v allocations per point, want ≤ 1", n)
	}
}
