package nre

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
)

// refPortfolio is Portfolio as it was before the design table: designs
// in a map keyed by concatenated key strings, a parallel cost map and a
// map of consuming systems per design, sorted by key once walked. It is
// the reference model TestPortfolioMatchesReference checks the table
// against. The one change is that a design's denominator is summed in
// portfolio order, as the table sums it, instead of in map order.
func refPortfolio(e *Engine, systems []system.System, policy Policy) (Result, error) {
	if len(systems) == 0 {
		return Result{}, fmt.Errorf("nre: empty portfolio")
	}
	seen := make(map[string]bool, len(systems))
	for _, s := range systems {
		if err := s.Validate(e.db); err != nil {
			return Result{}, err
		}
		if seen[s.Name] {
			return Result{}, fmt.Errorf("nre: duplicate system name %q", s.Name)
		}
		seen[s.Name] = true
	}

	designs := make(map[string]*Design)
	costs := make(map[string]float64)
	add := func(kind Kind, key string, cost float64, sys string, instances float64) error {
		if prev, ok := costs[key]; ok {
			if prev != cost {
				return fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design", key, prev, cost)
			}
		} else {
			costs[key] = cost
			designs[key] = &Design{Kind: kind, Key: key, Cost: cost, InstancesBySystem: map[string]float64{}}
		}
		designs[key].InstancesBySystem[sys] += instances
		return nil
	}

	for _, s := range systems {
		for _, p := range s.Placements {
			c := p.Chiplet
			node, err := e.db.Node(c.Node)
			if err != nil {
				return Result{}, err
			}
			chipCost := node.Kc*c.DieArea() + node.FixedChipNRE
			if err := add(ChipDesign, "chip/"+c.Name, chipCost, s.Name, float64(p.Count)); err != nil {
				return Result{}, err
			}
			for _, m := range c.Modules {
				mCost := node.Km * m.AreaMM2
				key := "module/" + c.Node + "/" + m.Name
				if err := add(ModuleDesign, key, mCost, s.Name, float64(p.Count)); err != nil {
					return Result{}, err
				}
			}
			if c.D2DArea() > 0 {
				if err := add(D2DDesign, "d2d/"+c.Node, node.D2DNRE, s.Name, float64(p.Count)); err != nil {
					return Result{}, err
				}
			}
		}
		geom, err := refPackageGeometry(e, s)
		if err != nil {
			return Result{}, err
		}
		kp, fixed := s.Scheme.NREFactors()
		pkgCost := kp*geom + fixed
		if err := add(PackageDesign, "pkg/"+s.PackageName(), pkgCost, s.Name, 1); err != nil {
			return Result{}, err
		}
	}

	quantity := make(map[string]float64, len(systems))
	for _, s := range systems {
		quantity[s.Name] = s.Quantity
	}
	res := Result{PerUnit: make(map[string]Breakdown, len(systems))}
	keys := make([]string, 0, len(designs))
	for k := range designs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := designs[k]
		res.Designs = append(res.Designs, *d)
		res.TotalNRE += d.Cost

		var denom float64
		for _, s := range systems {
			inst, ok := d.InstancesBySystem[s.Name]
			if !ok {
				continue
			}
			switch policy {
			case PerInstance:
				denom += quantity[s.Name] * inst
			default:
				denom += quantity[s.Name]
			}
		}
		if denom <= 0 {
			return Result{}, fmt.Errorf("nre: design %q has no production volume to amortize over", d.Key)
		}
		for sys, inst := range d.InstancesBySystem {
			var share float64
			switch policy {
			case PerInstance:
				share = d.Cost * inst / denom
			default:
				share = d.Cost / denom
			}
			b := res.PerUnit[sys]
			switch d.Kind {
			case ModuleDesign:
				b.Modules += share
			case ChipDesign:
				b.Chips += share
			case PackageDesign:
				b.Packages += share
			case D2DDesign:
				b.D2D += share
			}
			res.PerUnit[sys] = b
		}
	}
	return res, nil
}

// refPackageGeometry is packageGeometry as it was: the package priced
// uncached by packaging.Package on a Dies() copy with zero KGD costs.
func refPackageGeometry(e *Engine, s system.System) (float64, error) {
	dies := s.Dies()
	areas := make([]float64, len(dies))
	zeros := make([]float64, len(dies))
	for i, c := range dies {
		areas[i] = c.DieArea()
	}
	asm := packaging.Assembly{DieAreasMM2: areas, KGDCosts: zeros}
	if s.Envelope != nil {
		asm.FootprintOverrideMM2 = s.Envelope.FootprintMM2
		asm.InterposerOverrideMM2 = s.Envelope.InterposerAreaMM2
	}
	pkg, err := packaging.Package(e.params, e.db, s.Scheme, s.Flow, asm)
	if err != nil {
		return 0, err
	}
	return pkg.SubstrateAreaMM2 + pkg.InterposerAreaMM2, nil
}

// TestPortfolioMatchesReference compares Portfolio and PerUnit with the
// map-based reference on random portfolios under both policies, on an
// engine without caches and on one whose small partial cache evicts
// and replays cached errors: results by their %#v bytes (NaN defeats
// reflect.DeepEqual), errors by message.
func TestPortfolioMatchesReference(t *testing.T) {
	db := systemtest.DB()
	params := packaging.DefaultParams()
	ref, err := NewEngine(db, params)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(db, params)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewEngineWithCaches(db, params, packaging.NewPartialCache(64))
	if err != nil {
		t.Fatal(err)
	}
	gen := systemtest.New(2)
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	ok, failed, nan, wide := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		systems := gen.Portfolio()
		policy := Policy(i % 2)
		e := plain
		if i/2%2 == 1 {
			e = cached
		}
		want, werr := refPortfolio(ref, systems, policy)
		got, gerr := e.Portfolio(systems, policy)
		per, perr := e.PerUnit(systems, policy)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || fmt.Sprint(perr) != fmt.Sprint(werr) {
			t.Fatalf("draw %d (%v): errors\n got %v\n per %v\nwant %v\nportfolio %+v", i, policy, gerr, perr, werr, systems)
		}
		if len(systems) > 64 {
			wide++
		}
		if werr != nil {
			failed++
			continue
		}
		ok++
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("draw %d (%v):\n got %s\nwant %s\nportfolio %+v", i, policy, g, w, systems)
		}
		for j, s := range systems {
			if g, w := fmt.Sprintf("%#v", per[j]), fmt.Sprintf("%#v", want.PerUnit[s.Name]); g != w {
				t.Fatalf("draw %d (%v), PerUnit[%d]:\n got %s\nwant %s", i, policy, j, g, w)
			}
			if math.IsNaN(per[j].Total()) {
				nan++
			}
		}
	}
	if ok < n/5 || failed < n/5 || nan == 0 || wide == 0 {
		t.Fatalf("draws too narrow: %d priced (%d NaN systems), %d failed, %d wider than 64 systems", ok, nan, failed, wide)
	}
	t.Logf("%d portfolios priced (%d NaN systems), %d failed, %d wider than 64 systems", ok, nan, failed, wide)
}

// TestPortfolioDenominatorInPortfolioOrder prices three systems that
// share a chiplet at fractional quantities, whose sum depends on the
// order of its terms. Every call must give the same bits in every
// field: each design's cost over the quantities summed in portfolio
// order.
func TestPortfolioDenominatorInPortfolioOrder(t *testing.T) {
	e := engine(t)
	x := system.Chiplet{Name: "X", Node: "7nm", Modules: []system.Module{{Name: "Xmod", AreaMM2: 200}}, D2D: dtod.Fraction{F: 0.1}}
	var systems []system.System
	for i, q := range []float64{123456.7, 234567.8, 345678.9} {
		systems = append(systems, system.System{Name: string(rune('a' + i)), Scheme: packaging.MCM,
			Quantity: q, Placements: []system.Placement{{Chiplet: x, Count: i + 1}}})
	}
	node := e.db.MustNode("7nm")
	denom := (systems[0].Quantity + systems[1].Quantity) + systems[2].Quantity
	wantChips := (node.Kc*x.DieArea() + node.FixedChipNRE) / denom
	first := ""
	for call := 0; call < 200; call++ {
		res, err := e.Portfolio(systems, PerSystemUnit)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerUnit["a"].Chips; got != wantChips {
			t.Fatalf("call %d: PerUnit[a].Chips = %v, want %v", call, got, wantChips)
		}
		got := fmt.Sprintf("%#v", res)
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("call %d:\n got %s\nwant %s", call, got, first)
		}
	}
}

// TestWidePortfolioErrorOrder checks the error order of a portfolio
// wider than the pairwise duplicate scan: a system that fails
// validation before the first duplicate name wins, and the duplicate
// wins over one that fails after it.
func TestWidePortfolioErrorOrder(t *testing.T) {
	e := engine(t)
	var systems []system.System
	for i := 0; i < 70; i++ {
		systems = append(systems, system.Monolithic(fmt.Sprintf("s%d", i), "7nm", 100, 1000))
	}
	systems[68].Name = "s3"
	systems[69].Quantity = -1
	want := `nre: duplicate system name "s3"`
	if _, err := e.Portfolio(systems, PerSystemUnit); err == nil || err.Error() != want {
		t.Fatalf("duplicate: %v, want %s", err, want)
	}
	systems[60].Quantity = -1
	want = `system: "s60" has negative quantity -1`
	if _, err := e.PerUnit(systems, PerSystemUnit); err == nil || err.Error() != want {
		t.Fatalf("invalid before duplicate: %v, want %s", err, want)
	}
}

// TestLongPortfolioMatchesReference compares a valid portfolio of 150
// systems and over a thousand claims, whose permutation does not fit
// the stack buffer, with the reference under both policies.
func TestLongPortfolioMatchesReference(t *testing.T) {
	e := engine(t)
	shared := []system.Chiplet{
		{Name: "io", Node: "14nm", Modules: []system.Module{{Name: "io", AreaMM2: 80}}, D2D: dtod.Fraction{F: 0.1}},
		{Name: "core", Node: "5nm", Modules: []system.Module{{Name: "core", AreaMM2: 60}, {Name: "l3", AreaMM2: 20}}, D2D: dtod.Fraction{F: 0.1}},
	}
	var systems []system.System
	for i := 0; i < 150; i++ {
		own := system.Chiplet{Name: fmt.Sprintf("acc%d", i%40), Node: pick(i, "7nm", "5nm"),
			Modules: []system.Module{{Name: "acc", AreaMM2: 30}, {Name: fmt.Sprintf("m%d", i%7), AreaMM2: 10}}, D2D: dtod.Fraction{F: 0.1}}
		if own.Node == "5nm" {
			own.Name += "-5"
		}
		systems = append(systems, system.System{Name: fmt.Sprintf("s%03d", i), Scheme: packaging.MCM,
			Quantity:   1000 + 10.5*float64(i),
			Placements: []system.Placement{{Chiplet: shared[0], Count: 1}, {Chiplet: shared[1], Count: 1 + i%4}, {Chiplet: own, Count: 1}}})
	}
	if rows, err := e.walk(systems); err != nil || len(rows) <= 512 {
		t.Fatalf("walk made %d claims (%v), want more than 512", len(rows), err)
	}
	for _, policy := range []Policy{PerSystemUnit, PerInstance} {
		want, werr := refPortfolio(e, systems, policy)
		got, gerr := e.Portfolio(systems, policy)
		if werr != nil || gerr != nil {
			t.Fatalf("%v: errors %v, want %v", policy, gerr, werr)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("%v:\n got %s\nwant %s", policy, g, w)
		}
	}
}

func pick(i int, xs ...string) string { return xs[i%len(xs)] }

// TestDesignKeyOrder checks designKey.compare against the byte order
// of the key strings it stands for, on nodes and names that are
// prefixes of one another or contain slashes.
func TestDesignKeyOrder(t *testing.T) {
	parts := []string{"", "/", "7nm", "7nm-lp", "7nm/", "7nm/x", "x", "x/A", "A", "A-", "A/", "A/b", "m/x"}
	var keys []designKey
	for _, kind := range []Kind{ModuleDesign, ChipDesign, PackageDesign, D2DDesign} {
		for _, node := range parts {
			for _, name := range parts {
				keys = append(keys, designKey{kind, node, name})
			}
		}
	}
	for i := range keys {
		for j := range keys {
			a, b := &keys[i], &keys[j]
			if a.kind != ModuleDesign && a.kind == b.kind {
				// Only the module key joins both fields; the others
				// ignore one, so compare them on the field they use.
				switch a.kind {
				case D2DDesign:
					if a.name != "" || b.name != "" {
						continue
					}
				default:
					if a.node != "" || b.node != "" {
						continue
					}
				}
			}
			if got, want := a.compare(b), strings.Compare(a.String(), b.String()); got != want {
				t.Fatalf("compare(%q, %q) = %d, want %d", a.String(), b.String(), got, want)
			}
		}
	}
}
