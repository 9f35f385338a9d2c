package reuse

import (
	"fmt"
	"strconv"
	"strings"

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
//
// The chiplet name and every member name are slices of one string, and
// every member's placement is carved from one slab with its capacity
// equal to its length, so a family costs a fixed number of allocations
// whatever its size; retaining one member keeps the family's names
// alive.
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
		d2d = paperD2D
	}
	scheme := cfg.Scheme.String()
	size := len("X-") + len(cfg.Node)
	maxCount := 0
	for _, n := range cfg.Counts {
		if n < 1 {
			return nil, fmt.Errorf("reuse: SCMS count must be ≥ 1, got %d", n)
		}
		if n > maxCount {
			maxCount = n
		}
		size += decimalLen(n) + len("X-") + len(scheme)
	}
	// Grown to the exact size up front, the builder never reallocates,
	// so names sliced from it mid-build stay valid.
	var names strings.Builder
	names.Grow(size)
	names.WriteString("X-")
	names.WriteString(cfg.Node)
	chiplet := system.Chiplet{
		Name:    names.String(),
		Node:    cfg.Node,
		Modules: []system.Module{{Name: "X-module", AreaMM2: cfg.ModuleAreaMM2, Scalable: true}},
		D2D:     d2d,
	}
	var env *system.Envelope
	if cfg.ReusePackage {
		env = familyEnvelope("SCMS-family", cfg.Scheme, cfg.Params,
			float64(maxCount)*chiplet.DieArea())
	}
	placements := make([]system.Placement, len(cfg.Counts))
	out := make([]system.System, 0, len(cfg.Counts))
	var num [20]byte
	for i, n := range cfg.Counts {
		start := names.Len()
		names.Write(strconv.AppendInt(num[:0], int64(n), 10))
		names.WriteString("X-")
		names.WriteString(scheme)
		placements[i] = system.Placement{Chiplet: chiplet, Count: n}
		out = append(out, system.System{
			Name:       names.String()[start:],
			Scheme:     cfg.Scheme,
			Placements: placements[i : i+1 : i+1],
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
//
// The three chiplet names are slices of one string, the three chiplets'
// modules share one array, and every member's placements are carved
// from one slab, each with its capacity equal to its length; retaining
// one member keeps the family's names alive.
func OCME(cfg OCMEConfig) ([]system.System, error) {
	if cfg.SocketAreaMM2 <= 0 {
		return nil, fmt.Errorf("reuse: OCME socket area must be positive, got %v", cfg.SocketAreaMM2)
	}
	if cfg.Scheme == packaging.SoC {
		return nil, fmt.Errorf("reuse: OCME is a multi-chip architecture; use scheme MCM/InFO/2.5D")
	}
	d2d := cfg.D2D
	if d2d == nil {
		d2d = paperD2D
	}
	centerNode := cfg.CenterNode
	if centerNode == "" {
		centerNode = cfg.Node
	}
	var names strings.Builder
	names.Grow(len("C-") + len(centerNode) + 2*(len("X-")+len(cfg.Node)))
	names.WriteString("C-")
	names.WriteString(centerNode)
	xAt := names.Len()
	names.WriteString("X-")
	names.WriteString(cfg.Node)
	yAt := names.Len()
	names.WriteString("Y-")
	names.WriteString(cfg.Node)
	all := names.String()
	modules := []system.Module{
		// The center hosts the "unscalable" shared modules — the area
		// does not shrink when the node changes.
		{Name: "C-module", AreaMM2: cfg.SocketAreaMM2, Scalable: false},
		{Name: "X-module", AreaMM2: cfg.SocketAreaMM2, Scalable: true},
		{Name: "Y-module", AreaMM2: cfg.SocketAreaMM2, Scalable: true},
	}
	center := system.Chiplet{Name: all[:xAt], Node: centerNode, Modules: modules[0:1:1], D2D: d2d}
	x := system.Chiplet{Name: all[xAt:yAt], Node: cfg.Node, Modules: modules[1:2:2], D2D: d2d}
	y := system.Chiplet{Name: all[yAt:], Node: cfg.Node, Modules: modules[2:3:3], D2D: d2d}

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
	slab := 0
	for _, c := range configs {
		slab += 1 + min(c.x, 1) + min(c.y, 1)
	}
	placements := make([]system.Placement, 0, slab)
	out := make([]system.System, 0, len(configs))
	for _, c := range configs {
		lo := len(placements)
		placements = append(placements, system.Placement{Chiplet: center, Count: 1})
		if c.x > 0 {
			placements = append(placements, system.Placement{Chiplet: x, Count: c.x})
		}
		if c.y > 0 {
			placements = append(placements, system.Placement{Chiplet: y, Count: c.y})
		}
		out = append(out, system.System{
			Name:       c.name,
			Scheme:     cfg.Scheme,
			Placements: placements[lo:len(placements):len(placements)],
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
//
// Every chiplet, module, envelope and member name is a slice of one
// string, and every member's placements are carved from one slab, each
// with its capacity equal to its length, so a family costs a fixed
// number of allocations whatever n and k are; retaining one member
// keeps the family's names alive.
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
		d2d = paperD2D
	}
	// Type t's chiplet is "Tt-"+node and its module "Tt-module"; the
	// envelope is "FSMC-ksocket" and each member its label.
	size := len("FSMC-") + decimalLen(cfg.Sockets) + len("socket")
	for t := 1; t <= cfg.Types; t++ {
		size += 2*(len("T")+decimalLen(t)) + len("-module") + len("-") + len(cfg.Node)
	}
	slab := 0
	for _, col := range cols {
		size += col.labelLen()
		for _, count := range col.Counts {
			if count > 0 {
				slab++
			}
		}
	}
	var names strings.Builder
	names.Grow(size)
	// Numbers and labels are formatted in scratch, which a label longer
	// than 64 bytes outgrows at the cost of one allocation.
	var scratch [64]byte
	chiplets := make([]system.Chiplet, cfg.Types)
	modules := make([]system.Module, cfg.Types)
	for t := range chiplets {
		tn := strconv.AppendInt(append(scratch[:0], 'T'), int64(t+1), 10)
		start := names.Len()
		names.Write(tn)
		names.WriteString("-module")
		chip := names.Len()
		names.Write(tn)
		names.WriteByte('-')
		names.WriteString(cfg.Node)
		all := names.String()
		modules[t] = system.Module{Name: all[start:chip], AreaMM2: cfg.ModuleAreaMM2, Scalable: true}
		chiplets[t] = system.Chiplet{Name: all[chip:], Node: cfg.Node, Modules: modules[t : t+1 : t+1], D2D: d2d}
	}
	start := names.Len()
	names.WriteString("FSMC-")
	names.Write(strconv.AppendInt(scratch[:0], int64(cfg.Sockets), 10))
	names.WriteString("socket")
	env := familyEnvelope(names.String()[start:], cfg.Scheme, cfg.Params,
		float64(cfg.Sockets)*chiplets[0].DieArea())
	placements := make([]system.Placement, 0, slab)
	out := make([]system.System, 0, len(cols))
	for _, col := range cols {
		lo := len(placements)
		for t, count := range col.Counts {
			if count > 0 {
				placements = append(placements, system.Placement{Chiplet: chiplets[t], Count: count})
			}
		}
		start := names.Len()
		names.Write(col.appendLabel(scratch[:0]))
		out = append(out, system.System{
			Name:       names.String()[start:],
			Scheme:     cfg.Scheme,
			Placements: placements[lo:len(placements):len(placements)],
			Quantity:   cfg.QuantityPerSystem,
			Envelope:   env,
		})
	}
	return out, nil
}

// paperD2D is the builders' default D2D overhead, the paper's 10%,
// converted to a dtod.Overhead once rather than once per family.
var paperD2D dtod.Overhead = dtod.Fraction{F: 0.10}

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
// on the given node. The name gains a "-SoC" suffix, written straight
// into the twin's one names string, so a twin costs two allocations
// whatever the length of its name.
func SoCEquivalent(s system.System, node string) system.System {
	return system.MonolithicSuffixed(s.Name, "-SoC", node, s.TotalModuleArea(), s.Quantity)
}
