package reuse

import (
	"fmt"
	"strconv"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
)

// SCMSConfig parameterizes the §5.1 "Single Chiplet Multiple Systems"
// architecture: one chiplet design X scaled out to systems with
// different copy counts (the paper uses a 7nm, 200 mm²-module chiplet
// in 1X/2X/4X systems at 500k units each).
type SCMSConfig struct {
	// Node is the chiplet's process node.
	Node string
	// ModuleAreaMM2 is the functional-module area of the chiplet.
	ModuleAreaMM2 float64
	// D2D is the interface overhead model (nil = paper's 10%).
	D2D dtod.Overhead
	// Counts are the chiplet multiplicities of each system, e.g.
	// {1, 2, 4}.
	Counts []int
	// Scheme is the integration technology (MCM or 2.5D in §5.1).
	Scheme packaging.Scheme
	// QuantityPerSystem is each system's production volume.
	QuantityPerSystem float64
	// ReusePackage mounts every system in the largest system's
	// package envelope, trading wasted RE for shared package NRE.
	ReusePackage bool
	// Params supplies the geometry factors for the shared envelope.
	Params packaging.Params
}

// SCMS builds the SCMS system family.
func SCMS(cfg SCMSConfig) ([]system.System, error) {
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

// OCMEConfig parameterizes the §5.2 "One Center Multiple Extensions"
// architecture: a reused center die C surrounded by extension dies
// with a common footprint (the paper uses a 7nm system of four
// 160 mm² sockets with extensions X and Y).
type OCMEConfig struct {
	// Node is the process node of the extensions (and of the center,
	// unless CenterNode overrides it).
	Node string
	// CenterNode, when non-empty, puts the center die on a different
	// (typically mature) node — the paper's heterogeneity study puts
	// C on 14nm.
	CenterNode string
	// SocketAreaMM2 is the module area of each socket.
	SocketAreaMM2 float64
	// D2D is the interface overhead model (nil = paper's 10%).
	D2D dtod.Overhead
	// Scheme is the integration technology.
	Scheme packaging.Scheme
	// QuantityPerSystem is each system's production volume.
	QuantityPerSystem float64
	// ReusePackage mounts every system in the largest envelope.
	ReusePackage bool
	// Params supplies geometry factors for the shared envelope.
	Params packaging.Params
}

// OCME builds the four OCME systems of Figure 9: C, C+1X, C+1X+1Y and
// C+2X+2Y.
func OCME(cfg OCMEConfig) ([]system.System, error) {
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

// FSMCConfig parameterizes the §5.3 "A few Sockets Multiple
// Collocations" architecture: n chiplet types with a common footprint
// populated into a k-socket package in every possible multiset.
type FSMCConfig struct {
	// Node is the chiplets' process node.
	Node string
	// ModuleAreaMM2 is each chiplet's module area.
	ModuleAreaMM2 float64
	// D2D is the interface overhead model (nil = paper's 10%).
	D2D dtod.Overhead
	// Types is n, the number of distinct chiplet designs.
	Types int
	// Sockets is k, the package's socket count.
	Sockets int
	// Scheme is the integration technology.
	Scheme packaging.Scheme
	// QuantityPerSystem is each system's production volume.
	QuantityPerSystem float64
	// Params supplies geometry factors for the shared envelope. FSMC
	// always shares one k-socket package design across all systems —
	// that is the architecture's point.
	Params packaging.Params
}

// FSMC builds one system per collocation: Σ_{i=1..k} C(n+i-1, i)
// systems in total.
func FSMC(cfg FSMCConfig) ([]system.System, error) {
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
			Name:       col.Label(),
			Scheme:     cfg.Scheme,
			Placements: placements[lo:len(placements):len(placements)],
			Quantity:   cfg.QuantityPerSystem,
			Envelope:   env,
		})
	}
	return out, nil
}

// familyEnvelope sizes a shared package design for totalDieAreaMM2 of
// silicon under the given scheme.
func familyEnvelope(name string, scheme packaging.Scheme, params packaging.Params, totalDieAreaMM2 float64) *system.Envelope {
	env := &system.Envelope{Name: name, FootprintMM2: totalDieAreaMM2 * params.DieSpacingFactor}
	if scheme.HasInterposer() {
		env.InterposerAreaMM2 = totalDieAreaMM2 * params.InterposerFill
	}
	return env
}

// SoCEquivalent builds the monolithic comparator for a multi-chip
// system: a single die carrying the same total module area (no D2D)
// on the given node. The name gains a "-SoC" suffix.
func SoCEquivalent(s system.System, node string) system.System {
	return system.Monolithic(s.Name+"-SoC", node, s.TotalModuleArea(), s.Quantity)
}
