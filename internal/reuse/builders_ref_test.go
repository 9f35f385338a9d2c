package reuse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// The builders below are SCMS, OCME, FSMC and Label as they were
// before each family took its names from one string and its placements
// from one slab: one name string and one placement slice per member, a
// module slice per chiplet, and FSMC's labels formatted one by one.
// They are the reference models TestBuildersMatchReference and
// TestLabelMatchesReference check the current code against.

// refSCMS is SCMS with a placement slice and a name per member.
func refSCMS(cfg SCMSConfig) ([]system.System, error) {
	if len(cfg.Counts) == 0 {
		return nil, fmt.Errorf("reuse: SCMS needs at least one system count")
	}
	if cfg.ModuleAreaMM2 <= 0 {
		return nil, fmt.Errorf("reuse: SCMS module area must be positive, got %v", cfg.ModuleAreaMM2)
	}
	if cfg.Scheme == packaging.SoC {
		return nil, fmt.Errorf("reuse: SCMS is a multi-chip architecture; use scheme MCM/InFO/2.5D")
	}
	d2d := cfg.D2D
	if d2d == nil {
		d2d = dtod.Fraction{F: 0.10}
	}
	chiplet := system.Chiplet{
		Name:    "X-" + cfg.Node,
		Node:    cfg.Node,
		Modules: []system.Module{{Name: "X-module", AreaMM2: cfg.ModuleAreaMM2, Scalable: true}},
		D2D:     d2d,
	}
	maxCount := 0
	for _, n := range cfg.Counts {
		if n < 1 {
			return nil, fmt.Errorf("reuse: SCMS count must be ≥ 1, got %d", n)
		}
		if n > maxCount {
			maxCount = n
		}
	}
	var env *system.Envelope
	if cfg.ReusePackage {
		env = familyEnvelope("SCMS-family", cfg.Scheme, cfg.Params,
			float64(maxCount)*chiplet.DieArea())
	}
	out := make([]system.System, 0, len(cfg.Counts))
	for _, n := range cfg.Counts {
		out = append(out, system.System{
			Name:       strconv.Itoa(n) + "X-" + cfg.Scheme.String(),
			Scheme:     cfg.Scheme,
			Placements: []system.Placement{{Chiplet: chiplet, Count: n}},
			Quantity:   cfg.QuantityPerSystem,
			Envelope:   env,
		})
	}
	return out, nil
}

// refOCME is OCME with a placement slice per member that grows through
// appends, and five names and three module slices built one by one.
func refOCME(cfg OCMEConfig) ([]system.System, error) {
	if cfg.SocketAreaMM2 <= 0 {
		return nil, fmt.Errorf("reuse: OCME socket area must be positive, got %v", cfg.SocketAreaMM2)
	}
	if cfg.Scheme == packaging.SoC {
		return nil, fmt.Errorf("reuse: OCME is a multi-chip architecture; use scheme MCM/InFO/2.5D")
	}
	d2d := cfg.D2D
	if d2d == nil {
		d2d = dtod.Fraction{F: 0.10}
	}
	centerNode := cfg.CenterNode
	if centerNode == "" {
		centerNode = cfg.Node
	}
	center := system.Chiplet{
		Name: "C-" + centerNode,
		Node: centerNode,
		// The center hosts the "unscalable" shared modules — the area
		// does not shrink when the node changes.
		Modules: []system.Module{{Name: "C-module", AreaMM2: cfg.SocketAreaMM2, Scalable: false}},
		D2D:     d2d,
	}
	ext := func(name string) system.Chiplet {
		return system.Chiplet{
			Name:    name + "-" + cfg.Node,
			Node:    cfg.Node,
			Modules: []system.Module{{Name: name + "-module", AreaMM2: cfg.SocketAreaMM2, Scalable: true}},
			D2D:     d2d,
		}
	}
	x, y := ext("X"), ext("Y")

	configs := []struct {
		name string
		x, y int
	}{
		{"C", 0, 0},
		{"C+1X", 1, 0},
		{"C+1X+1Y", 1, 1},
		{"C+2X+2Y", 2, 2},
	}
	var env *system.Envelope
	if cfg.ReusePackage {
		// Envelope sized for the largest system: C + 4 extensions.
		maxDies := center.DieArea() + 4*x.DieArea()
		env = familyEnvelope("OCME-family", cfg.Scheme, cfg.Params, maxDies)
	}
	out := make([]system.System, 0, len(configs))
	for _, c := range configs {
		placements := []system.Placement{{Chiplet: center, Count: 1}}
		if c.x > 0 {
			placements = append(placements, system.Placement{Chiplet: x, Count: c.x})
		}
		if c.y > 0 {
			placements = append(placements, system.Placement{Chiplet: y, Count: c.y})
		}
		out = append(out, system.System{
			Name:       c.name,
			Scheme:     cfg.Scheme,
			Placements: placements,
			Quantity:   cfg.QuantityPerSystem,
			Envelope:   env,
		})
	}
	return out, nil
}

// refFSMC is FSMC with each member's label, and each chiplet type's two
// names, formatted one by one.
func refFSMC(cfg FSMCConfig) ([]system.System, error) {
	if cfg.ModuleAreaMM2 <= 0 {
		return nil, fmt.Errorf("reuse: FSMC module area must be positive, got %v", cfg.ModuleAreaMM2)
	}
	if cfg.Scheme == packaging.SoC {
		return nil, fmt.Errorf("reuse: FSMC is a multi-chip architecture; use scheme MCM/InFO/2.5D")
	}
	cols, err := Collocations(cfg.Types, cfg.Sockets)
	if err != nil {
		return nil, err
	}
	d2d := cfg.D2D
	if d2d == nil {
		d2d = dtod.Fraction{F: 0.10}
	}
	chiplets := make([]system.Chiplet, cfg.Types)
	modules := make([]system.Module, cfg.Types)
	for t := range chiplets {
		tn := "T" + strconv.Itoa(t+1)
		modules[t] = system.Module{Name: tn + "-module", AreaMM2: cfg.ModuleAreaMM2, Scalable: true}
		chiplets[t] = system.Chiplet{
			Name:    tn + "-" + cfg.Node,
			Node:    cfg.Node,
			Modules: modules[t : t+1 : t+1],
			D2D:     d2d,
		}
	}
	env := familyEnvelope("FSMC-"+strconv.Itoa(cfg.Sockets)+"socket", cfg.Scheme, cfg.Params,
		float64(cfg.Sockets)*chiplets[0].DieArea())
	// Every member's placements are carved from one slab, each with its
	// capacity equal to its length.
	slab := 0
	for _, col := range cols {
		for _, count := range col.Counts {
			if count > 0 {
				slab++
			}
		}
	}
	placements := make([]system.Placement, 0, slab)
	out := make([]system.System, 0, len(cols))
	for _, col := range cols {
		lo := len(placements)
		for t, count := range col.Counts {
			if count > 0 {
				placements = append(placements, system.Placement{Chiplet: chiplets[t], Count: count})
			}
		}
		out = append(out, system.System{
			Name:       refBufLabel(col),
			Scheme:     cfg.Scheme,
			Placements: placements[lo:len(placements):len(placements)],
			Quantity:   cfg.QuantityPerSystem,
			Envelope:   env,
		})
	}
	return out, nil
}

// refBufLabel is Label formatted into its own stack buffer.
func refBufLabel(c Collocation) string {
	var buf [32]byte
	b := buf[:0]
	for t, v := range c.Counts {
		if v < 1 {
			continue
		}
		if len(b) > 0 {
			b = append(b, '+')
		}
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(t+1), 10)
		if v > 1 {
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return string(b)
}

// familyDump renders a built family, or its error, for comparison by
// %#v: each member with its envelope printed by value rather than by
// address, and for each envelope the first member that shares it.
func familyDump(systems []system.System, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d members\n", len(systems))
	for i, s := range systems {
		env := s.Envelope
		s.Envelope = nil
		fmt.Fprintf(&b, "%#v\n", s)
		if env != nil {
			first := i
			for j := range systems[:i] {
				if systems[j].Envelope == env {
					first = j
					break
				}
			}
			fmt.Fprintf(&b, "envelope %#v, first used by member %d\n", *env, first)
		}
	}
	return b.String()
}

// TestBuildersMatchReference builds every family of a grid of configs
// with SCMS, OCME and FSMC and with the reference builders above, and
// compares the two by %#v, errors by message. The grid covers nodes,
// OCME with its center on the extensions' node and on another, SCMS
// counts unsorted, repeated and invalid, a shared package on and off,
// FSMC with 0–6 types in 0–4 sockets, every scheme, and the default and
// explicit D2D overheads.
func TestBuildersMatchReference(t *testing.T) {
	params := packaging.DefaultParams()
	nodes := []string{"7nm", "5nm", "14nm"}
	schemes := []packaging.Scheme{packaging.SoC, packaging.MCM, packaging.InFO, packaging.TwoPointFiveD}
	d2ds := []dtod.Overhead{nil, dtod.Fraction{F: 0.25}, dtod.None{}}
	areas := []float64{150, 0, -1}
	compared, failed := map[string]int{}, map[string]int{}
	compare := func(builder, where string, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s %s:\n got %s\nwant %s", builder, where, got, want)
		}
		compared[builder]++
		if strings.HasPrefix(want, "error: ") {
			failed[builder]++
		}
	}
	for _, node := range nodes {
		for _, scheme := range schemes {
			for di, d2d := range d2ds {
				for _, area := range areas {
					for _, shared := range []bool{false, true} {
						for _, counts := range [][]int{{1, 2, 4}, {4, 1, 2}, {2, 2, 1}, {1}, {3, 3, 3},
							{16, 1, 100, 7}, {1234567}, nil, {1, 0}, {2, -1}} {
							cfg := SCMSConfig{Node: node, ModuleAreaMM2: area, D2D: d2d, Counts: counts,
								Scheme: scheme, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params}
							where := fmt.Sprintf("%s %v d2d#%d area %v shared %v counts %v", node, scheme, di, area, shared, counts)
							compare("SCMS", where, familyDump(SCMS(cfg)), familyDump(refSCMS(cfg)))
						}
						for _, center := range append([]string{""}, nodes...) {
							cfg := OCMEConfig{Node: node, CenterNode: center, SocketAreaMM2: area, D2D: d2d,
								Scheme: scheme, QuantityPerSystem: 5e5, ReusePackage: shared, Params: params}
							where := fmt.Sprintf("%s center %q %v d2d#%d area %v shared %v", node, center, scheme, di, area, shared)
							compare("OCME", where, familyDump(OCME(cfg)), familyDump(refOCME(cfg)))
						}
					}
					for types := 0; types <= 6; types++ {
						for sockets := 0; sockets <= 4; sockets++ {
							cfg := FSMCConfig{Node: node, ModuleAreaMM2: area, D2D: d2d, Types: types, Sockets: sockets,
								Scheme: scheme, QuantityPerSystem: 5e5, Params: params}
							where := fmt.Sprintf("%s %v d2d#%d area %v %dx%d", node, scheme, di, area, types, sockets)
							compare("FSMC", where, familyDump(FSMC(cfg)), familyDump(refFSMC(cfg)))
						}
					}
				}
			}
		}
	}
	for _, builder := range []string{"SCMS", "OCME", "FSMC"} {
		if failed[builder] == 0 || failed[builder] == compared[builder] {
			t.Errorf("%s: %d of %d configs failed; the grid must build some families and reject others",
				builder, failed[builder], compared[builder])
		}
	}
	t.Logf("families compared: %v; rejected: %v", compared, failed)
}

// TestLabelMatchesReference compares Label with the reference over
// every collocation of up to 12 types in up to 4 sockets and over
// counts the enumeration never makes (zero and negative counts, counts
// and type numbers of several digits, labels longer than any stack
// buffer), and checks that labelLen is the label's length.
func TestLabelMatchesReference(t *testing.T) {
	var all []Collocation
	for n := 1; n <= 12; n++ {
		for k := 1; k <= 4; k++ {
			cols, err := Collocations(n, k)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, cols...)
		}
	}
	long := make([]int, 40)
	for i := range long {
		long[i] = i * 37
	}
	for _, counts := range [][]int{nil, {0}, {0, 0, 3}, {-1, 2}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12},
		{123456, 1, 7}, {math.MaxInt, 1}, long} {
		all = append(all, Collocation{Counts: counts})
	}
	for _, c := range all {
		got, want := c.Label(), refBufLabel(c)
		if got != want {
			t.Fatalf("%v: label %q, want %q", c.Counts, got, want)
		}
		if n := c.labelLen(); n != len(want) {
			t.Fatalf("%v: labelLen %d, want %d (%q)", c.Counts, n, len(want), want)
		}
	}
}
