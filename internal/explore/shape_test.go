package explore

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/memo/memotest"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/sweep"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

func TestShapeTablePointerFree(t *testing.T) {
	memotest.PointerFree[shapeKey, shapeEntry](t)
}

// shapeWorld is a technology database and packaging parameter set the
// property tests price in, with the nodes its draws use.
type shapeWorld struct {
	name   string
	db     *tech.Database
	params packaging.Params
	nodes  []string
}

// shapeWorlds covers the shape path's error cases besides quantity: an
// unknown node and infeasible packages (default world), and dies larger
// than the wafer (packages big enough to hold them). A die priced to
// NaN, which REUniform would hand to the general walk, needs a NaN node
// parameter, and node validation rejects one: shapeWorlds checks that
// Override refuses the NaN wafer cost such a world would need.
func shapeWorlds(t *testing.T) []shapeWorld {
	t.Helper()
	big := packaging.DefaultParams()
	big.MaxSubstrateMM2, big.MaxInterposerMM2 = 1e9, 1e9
	nan := tech.Default().MustNode("7nm")
	nan.Name, nan.WaferCost = "7nm-nan", math.NaN()
	if _, err := tech.Default().Override(nan); err == nil || !strings.Contains(err.Error(), "wafer_cost") {
		t.Fatalf("Override of a NaN wafer cost: %v, want an error naming wafer_cost", err)
	}
	return []shapeWorld{
		{"default", tech.Default(), packaging.DefaultParams(), []string{"5nm", "7nm", "14nm", "28nm", "no-such-node"}},
		{"big packages", tech.Default(), big, []string{"5nm", "28nm"}},
	}
}

// drawUniform draws a uniform system of world w: every scheme and
// flow, k from 1 to 64, areas up to far past the wafer, several D2D
// overheads, and quantities of zero and below.
func drawUniform(r *rand.Rand, w shapeWorld, i int) system.System {
	schemes := packaging.Schemes
	for {
		scheme := schemes[r.IntN(len(schemes))]
		k := 1
		if scheme != packaging.SoC {
			k = 1 + r.IntN(64)
		}
		areas := []float64{25, 60, 150, 333.3, 800, 1600, 3000}
		if w.name == "big packages" {
			areas = append(areas, 90_000, 250_000)
		}
		area := areas[r.IntN(len(areas))] * float64(k) / float64(1+r.IntN(8))
		d2d := []dtod.Overhead{dtod.None{}, dtod.Fraction{F: 0.1}, dtod.Fraction{F: 0.25}}[r.IntN(3)]
		q := []float64{1, 1e3, 5e5, 2e7, 0, -3}[r.IntN(6)]
		s, err := system.PartitionEqual(fmt.Sprintf("u%d", i), w.nodes[r.IntN(len(w.nodes))], area, k, scheme, d2d, q)
		if err != nil {
			continue
		}
		s.Flow = []packaging.Flow{packaging.ChipLast, packaging.ChipFirst}[r.IntN(2)]
		return s
	}
}

// outcome prints a Single or Portfolio answer: %#v bytes (NaN defeats
// ==), or the error string.
func outcome(tc TotalCost, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#v", tc)
}

// TestShapeTableMatchesReference prices seeded random uniform systems
// through Single with a cold, a warm, a disabled and a small evicting
// shape table, and compares each answer with a cache-less evaluator's
// Single and with its one-member Portfolio, by %#v bytes and by error
// string.
func TestShapeTableMatchesReference(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1000
	}
	kinds := map[string]int{}
	for wi, w := range shapeWorlds(t) {
		mk := func(kgd, partials int) *Evaluator {
			ev, err := NewEvaluatorWithCaches(w.db, w.params, kgd, partials)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		ref, err := NewEvaluator(w.db, w.params)
		if err != nil {
			t.Fatal(err)
		}
		cached, disabled, evicting := mk(4096, 8192), mk(0, 0), mk(16, 16)
		r := rand.New(rand.NewPCG(uint64(wi), 19))
		for i := 0; i < n; i++ {
			s := drawUniform(r, w, i)
			if _, ok := system.AsUniform(s); !ok {
				t.Fatalf("%s: draw %d is not uniform: %+v", w.name, i, s)
			}
			policy := nre.Policy(r.IntN(2))
			m, perr := ref.Portfolio([]system.System{s}, policy)
			want := outcome(m[s.Name], perr)
			if got := outcome(ref.Single(s, policy)); got != want {
				t.Fatalf("%s draw %d (%s k=%d %v): cache-less Single\n got %s\nwant %s",
					w.name, i, s.Scheme, len(s.Placements), policy, got, want)
			}
			for _, c := range []struct {
				name string
				ev   *Evaluator
			}{{"cold", cached}, {"warm", cached}, {"disabled", disabled}, {"evicting", evicting}} {
				if got := outcome(c.ev.Single(s, policy)); got != want {
					t.Fatalf("%s draw %d (%s k=%d %v): %s shape table\n got %s\nwant %s",
						w.name, i, s.Scheme, len(s.Placements), policy, c.name, got, want)
				}
			}
			switch {
			case perr != nil:
				kinds[w.name+" error"]++
			case math.IsNaN(m[s.Name].Total()):
				kinds[w.name+" NaN"]++
			default:
				kinds[w.name+" priced"]++
			}
		}
	}
	for _, k := range []string{"default priced", "default error", "big packages priced", "big packages error"} {
		if kinds[k] == 0 {
			t.Errorf("no draw was %s: %v", k, kinds)
		}
	}
	t.Logf("outcomes: %v", kinds)
}

// TestShapeTableErrorCases pins the error shapes the step path reports
// for the shape table — unknown node, unknown scheme, infeasible
// package and a die larger than the wafer — cold and warm, against the
// one-member Portfolio.
func TestShapeTableErrorCases(t *testing.T) {
	worlds := shapeWorlds(t)
	cases := []struct {
		world  int
		node   string
		area   float64
		k      int
		scheme packaging.Scheme
		want   string // substring of the error
	}{
		{0, "no-such-node", 400, 4, packaging.MCM, "unknown node"},
		// Past the key's scheme byte: must not alias the MCM shape
		// (Scheme 257 → 1) the previous case's world priced.
		{0, "5nm", 400, 4, packaging.Scheme(257), "unknown scheme"},
		{0, "5nm", 3000, 2, packaging.TwoPointFiveD, "interposer"},
		{1, "5nm", 250_000, 1, packaging.MCM, "fits"},
	}
	evs := map[int]*Evaluator{}
	for _, c := range cases {
		w := worlds[c.world]
		ev := evs[c.world]
		if ev == nil {
			var err error
			if ev, err = NewEvaluatorWithCaches(w.db, w.params, 64, 64); err != nil {
				t.Fatal(err)
			}
			evs[c.world] = ev
			// Prime the table with the MCM twin of the scheme-257 case.
			mcm, err := system.PartitionEqual("e", "5nm", 400, 4, packaging.MCM, dtod.Fraction{F: 0.1}, 1e5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ev.Single(mcm, nre.PerSystemUnit); c.world == 0 && err != nil {
				t.Fatal(err)
			}
		}
		ref, err := NewEvaluator(w.db, w.params)
		if err != nil {
			t.Fatal(err)
		}
		s, err := system.PartitionEqual("e", c.node, c.area, c.k, c.scheme, dtod.Fraction{F: 0.1}, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		m, perr := ref.Portfolio([]system.System{s}, nre.PerSystemUnit)
		want := outcome(m[s.Name], perr)
		for pass := 0; pass < 2; pass++ {
			tc, err := ev.Single(s, nre.PerSystemUnit)
			if got := outcome(tc, err); got != want {
				t.Fatalf("%s/%s pass %d:\n got %s\nwant %s", w.name, c.node, pass, got, want)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s/%s: error %v, want one containing %q", w.name, c.node, err, c.want)
			}
		}
	}
}

// TestShapeTableOneProbe checks that a repeated uniform point makes one
// probe: a second pass over the same shapes hits the shape table once
// per point and touches neither the KGD nor the partial table, and the
// first pass books the KGD and partial probes REUniform would.
func TestShapeTableOneProbe(t *testing.T) {
	ev, err := NewEvaluatorWithCaches(tech.Default(), packaging.DefaultParams(), 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var shapes []system.System
	for _, scheme := range []packaging.Scheme{packaging.MCM, packaging.InFO, packaging.TwoPointFiveD} {
		for _, area := range []float64{200, 400, 600} {
			for k := 1; k <= 8; k++ {
				s, err := system.PartitionEqual("p", "7nm", area, k, scheme, dtod.Fraction{F: 0.1}, 1e5)
				if err != nil {
					t.Fatal(err)
				}
				shapes = append(shapes, s)
			}
		}
	}
	price := func() {
		for _, s := range shapes {
			if _, err := ev.Single(s, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
		}
	}
	price()
	kgd0, ps0 := ev.Cost.CacheStats(), ev.PartialsCacheStats()
	n := int64(len(shapes))
	if ps0.NRE.Misses != n || ps0.NRE.Hits != 0 || ps0.NRE.Entries != len(shapes) {
		t.Fatalf("cold pass: shape table %+v, want %d misses", ps0.NRE, n)
	}
	// Every package key is distinct; the die keys repeat across schemes.
	if ps0.Packaging.Misses != n || ps0.Packaging.Hits != 0 {
		t.Fatalf("cold pass: partial table %+v, want %d misses and no hit", ps0.Packaging, n)
	}
	var dies int64
	for _, s := range shapes {
		dies += int64(len(s.Placements))
	}
	if kgd0.Hits+kgd0.Misses != dies || kgd0.Misses != int64(kgd0.Entries) {
		t.Fatalf("cold pass: KGD table %+v, want %d probes, one miss per entry", kgd0, dies)
	}
	price()
	kgd1, ps1 := ev.Cost.CacheStats(), ev.PartialsCacheStats()
	if ps1.NRE.Hits != n || ps1.NRE.Misses != n {
		t.Fatalf("warm pass: shape table %+v, want %d hits", ps1.NRE, n)
	}
	if kgd1 != kgd0 || ps1.Packaging != ps0.Packaging {
		t.Fatalf("warm pass reached the KGD or partial table: KGD %+v → %+v, partials %+v → %+v",
			kgd0, kgd1, ps0.Packaging, ps1.Packaging)
	}
}

// TestShapeTableConcurrentEviction drives one evaluator whose shape,
// partial and KGD tables hold one entry per shard from several
// goroutines; every answer must match a cache-less evaluator's. Run it
// under -race.
func TestShapeTableConcurrentEviction(t *testing.T) {
	db, params := tech.Default(), packaging.DefaultParams()
	ref, err := NewEvaluator(db, params)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorWithCaches(db, params, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := shapeWorlds(t)[0]
	r := rand.New(rand.NewPCG(7, 19))
	systems := make([]system.System, 96)
	want := make([]string, len(systems))
	for i := range systems {
		systems[i] = drawUniform(r, w, i)
		want[i] = outcome(ref.Single(systems[i], nre.PerSystemUnit))
	}
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				j := (i*7 + g*13) % len(systems)
				if got := outcome(ev.Single(systems[j], nre.PerSystemUnit)); got != want[j] {
					errs <- fmt.Errorf("worker %d system %d:\n got %s\nwant %s", g, j, got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := ev.PartialsCacheStats().NRE; st.Entries > 16 || st.Hits == 0 || st.Misses <= int64(st.Entries) {
		t.Errorf("shape table %+v: want a full, evicting table that also hit", st)
	}
}

// TestShapeHashFoldsNodeName checks that the shape table hashes a key
// as the NRE uniform-term table it replaced hashed the same shape with
// the node's name in the key, so every shape keeps its shard.
func TestShapeHashFoldsNodeName(t *testing.T) {
	db := tech.Default()
	hash := shapeKeyHash(db)
	for _, name := range db.Names() {
		id, _ := db.NodeID(name)
		for _, scheme := range packaging.Schemes {
			for _, k := range []int{1, 2, 17, 64} {
				mod, d2d := 120.5/float64(k), 3.25
				h := uint64(1469598103934665603)
				for i := 0; i < len(name); i++ {
					h = (h ^ uint64(name[i])) * 1099511628211
				}
				h = (h ^ (uint64(scheme)<<24 | uint64(packaging.ChipFirst)<<16 | uint64(uint16(k)))) * 1099511628211
				h = (h ^ math.Float64bits(mod)) * 1099511628211
				h = (h ^ math.Float64bits(d2d)) * 1099511628211
				key := shapeKey{node: int32(id), scheme: uint8(scheme), flow: uint8(packaging.ChipFirst), k: uint16(k),
					moduleArea: mod, d2dArea: d2d}
				if got := hash(key); got != h {
					t.Fatalf("%s %v k=%d: hash %#x, want %#x", name, scheme, k, got, h)
				}
			}
		}
	}
}

// TestShapeTableHoldsStreamGrid prices the 4488-point grid of the
// root package's BenchmarkSessionStreamSweep (5nm, MCM, 100–800 mm² in
// 1.25 mm² steps, 1–8 chiplets) twice on a default-sized table. Its
// 4488 shapes fit 8192 entries only if no shard of 512 receives more
// than its share, so the first pass must miss once per shape and evict
// nothing, and the second must hit every shape.
func TestShapeTableHoldsStreamGrid(t *testing.T) {
	areas, err := sweep.AreaRange(100, 800, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := sweep.CountRange(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{Name: "bench", Nodes: []string{"5nm"}, Schemes: []packaging.Scheme{packaging.MCM},
		AreasMM2: areas, Counts: counts, Quantities: []float64{1_000_000}, D2D: dtod.Fraction{F: 0.10}}
	ev, err := NewEvaluatorWithCaches(tech.Default(), packaging.DefaultParams(), 4096, DefaultPartialsCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	const points = 4488
	for pass := 1; pass <= 2; pass++ {
		gen, n := grid.Points(), 0
		for p, ok := gen.Next(); ok; p, ok = gen.Next() {
			if _, err := ev.Single(p.System, nre.PerSystemUnit); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != points {
			t.Fatalf("pass %d priced %d points, want %d", pass, n, points)
		}
		st := ev.PartialsCacheStats().NRE
		if st.Entries != points || st.Misses != points || st.Hits != int64(points*(pass-1)) {
			t.Fatalf("pass %d: shape table %+v, want %d entries, %d misses and %d hits",
				pass, st, points, points, points*(pass-1))
		}
	}
}
