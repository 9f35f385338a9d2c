// Package system implements the paper's high-level abstraction
// (Eq. 3): a group of systems is built from a group of modules; each
// module plus a D2D interface forms a chiplet; a system is either a
// monolithic SoC formed directly from modules or a multi-chip package
// formed from chiplets.
package system

import (
	"fmt"
	"math"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/wafer"
)

// Module is an indivisible group of functional units ("different from
// the general concept of the module", §3.1). The D2D interface is
// *not* a Module here — it is attached at the chiplet level through a
// dtod.Overhead, mirroring the paper's "particular module" treatment.
type Module struct {
	// Name identifies the module design; module NRE is paid once per
	// (Name, Node) pair across a whole portfolio.
	Name string
	// AreaMM2 is the module's silicon area on its node.
	AreaMM2 float64
	// Scalable marks modules that benefit from advanced process
	// nodes. OCME-style heterogeneity moves unscalable modules to
	// mature nodes.
	Scalable bool
}

// SalvageSpec enables partial-good harvesting for a die: defects in
// the salvageable Fraction of the area leave a degraded but sellable
// bin worth Value of a full die. See yield.Salvage for the model.
type SalvageSpec struct {
	// Fraction is the salvageable area share, in [0, 1).
	Fraction float64
	// Value is the degraded bin's relative value, in [0, 1].
	Value float64
}

// Chiplet is a die: one or more modules plus a D2D interface on a
// process node. A monolithic SoC is the degenerate chiplet with a
// dtod.None interface.
type Chiplet struct {
	// Name identifies the chip design; chip NRE is paid once per Name
	// across a portfolio.
	Name string
	// Node is the process node, e.g. "7nm".
	Node string
	// Modules are the functional modules placed on the die.
	Modules []Module
	// D2D sizes the die-to-die interface area.
	D2D dtod.Overhead
	// Salvage, when non-nil, credits partial-good dies against this
	// chiplet's cost (EPYC-style core harvesting).
	Salvage *SalvageSpec
}

// ModuleArea returns the summed functional-module area.
//
// The chiplet's area and validation methods take a pointer: a Chiplet
// is 80 bytes, and the pricing walks call them once per placement.
func (c *Chiplet) ModuleArea() float64 {
	var sum float64
	for i := range c.Modules {
		sum += c.Modules[i].AreaMM2
	}
	return sum
}

// D2DArea returns the interface area for this chiplet.
func (c *Chiplet) D2DArea() float64 {
	return c.d2dArea(c.ModuleArea())
}

// d2dArea is D2DArea for a chiplet whose module area is moduleArea.
func (c *Chiplet) d2dArea(moduleArea float64) float64 {
	if c.D2D == nil {
		return 0
	}
	return c.D2D.Area(moduleArea)
}

// DieArea returns the total die area: modules plus D2D.
func (c *Chiplet) DieArea() float64 {
	m := c.ModuleArea()
	return m + c.d2dArea(m)
}

// Validate checks the chiplet against the technology database.
func (c *Chiplet) Validate(db *tech.Database) error {
	if c.Name == "" {
		return fmt.Errorf("system: chiplet with empty name")
	}
	if _, err := db.NodeID(c.Node); err != nil {
		return fmt.Errorf("system: chiplet %q: %w", c.Name, err)
	}
	if len(c.Modules) == 0 {
		return fmt.Errorf("system: chiplet %q has no modules", c.Name)
	}
	for i := range c.Modules {
		m := &c.Modules[i]
		if m.Name == "" {
			return fmt.Errorf("system: chiplet %q has an unnamed module", c.Name)
		}
		if m.AreaMM2 <= 0 {
			return fmt.Errorf("system: chiplet %q module %q has non-positive area %v",
				c.Name, m.Name, m.AreaMM2)
		}
	}
	if s := c.Salvage; s != nil {
		if s.Fraction < 0 || s.Fraction >= 1 {
			return fmt.Errorf("system: chiplet %q salvage fraction %v outside [0,1)", c.Name, s.Fraction)
		}
		if s.Value < 0 || s.Value > 1 {
			return fmt.Errorf("system: chiplet %q salvage value %v outside [0,1]", c.Name, s.Value)
		}
	}
	return nil
}

// Warnings reports manufacturability concerns that do not make the
// chiplet unrepresentable — notably dies beyond the lithographic
// reticle. The paper's Figure 4 deliberately models SoCs up to
// 900 mm², slightly past the reticle, so this is advisory rather than
// a validation failure; exploration code treats it as a hard bound.
func (c *Chiplet) Warnings() []string {
	var w []string
	if area := c.DieArea(); area > wafer.ReticleLimitMM2 {
		w = append(w, fmt.Sprintf("chiplet %q die area %.0f mm² exceeds the reticle limit %.0f mm²",
			c.Name, area, wafer.ReticleLimitMM2))
	}
	return w
}

// Placement mounts Count copies of a chiplet in a package.
type Placement struct {
	Chiplet Chiplet
	Count   int
}

// Envelope describes a reused package design: a fixed footprint (and
// interposer, for advanced packaging) sized for the largest system in
// a family. Smaller systems mounted in the same envelope waste
// substrate/interposer RE but share the package NRE (§5.1).
type Envelope struct {
	// Name identifies the package design for NRE sharing.
	Name string
	// FootprintMM2 is the die-mounting footprint the substrate is
	// sized for.
	FootprintMM2 float64
	// InterposerAreaMM2 is the interposer size (0 for SoC/MCM).
	InterposerAreaMM2 float64
}

// System is one product: a set of chiplet placements integrated by a
// packaging scheme, manufactured in some quantity.
type System struct {
	// Name identifies the system (and its package design when no
	// Envelope is shared).
	Name string
	// Scheme is the integration technology.
	Scheme packaging.Scheme
	// Flow is the assembly order; the zero value is the paper's
	// default, chip-last.
	Flow packaging.Flow
	// Placements are the mounted chiplets.
	Placements []Placement
	// Quantity is the production volume used for NRE amortization.
	Quantity float64
	// Envelope, when non-nil, mounts the system in a reused package
	// design instead of a right-sized one.
	Envelope *Envelope
}

// DieCount returns the number of dies in the package.
//
// System's methods keep value receivers, so that they can be called on
// a System that is not addressable, and reach each 88-byte placement
// by index rather than copying it.
func (s System) DieCount() int {
	n := 0
	for i := range s.Placements {
		n += s.Placements[i].Count
	}
	return n
}

// Dies returns the chiplet of every mounted die, expanded by count.
func (s System) Dies() []Chiplet {
	out := make([]Chiplet, 0, s.DieCount())
	for i := range s.Placements {
		p := &s.Placements[i]
		for j := 0; j < p.Count; j++ {
			out = append(out, p.Chiplet)
		}
	}
	return out
}

// TotalDieArea returns the summed die area over all placements.
func (s System) TotalDieArea() float64 {
	var sum float64
	for i := range s.Placements {
		p := &s.Placements[i]
		sum += float64(p.Count) * p.Chiplet.DieArea()
	}
	return sum
}

// TotalModuleArea returns the summed functional-module area.
func (s System) TotalModuleArea() float64 {
	var sum float64
	for i := range s.Placements {
		p := &s.Placements[i]
		sum += float64(p.Count) * p.Chiplet.ModuleArea()
	}
	return sum
}

// UniqueChiplets returns one entry per distinct chiplet name, in
// placement order.
func (s System) UniqueChiplets() []Chiplet {
	seen := make(map[string]bool, len(s.Placements))
	var out []Chiplet
	for i := range s.Placements {
		c := &s.Placements[i].Chiplet
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, *c)
		}
	}
	return out
}

// PackageName returns the package-design identity: the envelope name
// when a package is reused, otherwise the system's own name.
func (s System) PackageName() string {
	if s.Envelope != nil {
		return s.Envelope.Name
	}
	return s.Name
}

// Warnings aggregates the manufacturability warnings of all mounted
// chiplets (one entry per distinct chiplet design).
func (s System) Warnings() []string {
	var w []string
	chiplets := s.UniqueChiplets()
	for i := range chiplets {
		w = append(w, chiplets[i].Warnings()...)
	}
	return w
}

// Validate checks the system against the database and scheme rules.
func (s System) Validate(db *tech.Database) error {
	if s.Name == "" {
		return fmt.Errorf("system: system with empty name")
	}
	if len(s.Placements) == 0 {
		return fmt.Errorf("system: %q has no placements", s.Name)
	}
	dies := 0
	for i := range s.Placements {
		p := &s.Placements[i]
		if p.Count <= 0 {
			return fmt.Errorf("system: %q places %q with non-positive count %d",
				s.Name, p.Chiplet.Name, p.Count)
		}
		// Each count and the running total stay within the bound, so
		// the sum cannot overflow and a pricing walk never asks for
		// more than MaxPartitionCount dies.
		if p.Count > MaxPartitionCount {
			return fmt.Errorf("system: %q places %d copies of %q, more than the bound of %d dies",
				s.Name, p.Count, p.Chiplet.Name, MaxPartitionCount)
		}
		if dies += p.Count; dies > MaxPartitionCount {
			return fmt.Errorf("system: %q mounts more than the bound of %d dies once it places %q",
				s.Name, MaxPartitionCount, p.Chiplet.Name)
		}
		if err := p.Chiplet.Validate(db); err != nil {
			return fmt.Errorf("system: %q: %w", s.Name, err)
		}
	}
	if s.Scheme == packaging.SoC && dies != 1 {
		return fmt.Errorf("system: %q is an SoC but mounts %d dies", s.Name, dies)
	}
	if s.Quantity < 0 {
		return fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	if env := s.Envelope; env != nil {
		if env.Name == "" {
			return fmt.Errorf("system: %q reuses an unnamed package envelope", s.Name)
		}
		// Packaging applies an override only above zero, so a broken
		// envelope would otherwise price as a right-sized package.
		switch fp, ip := env.FootprintMM2, env.InterposerAreaMM2; {
		case fp <= 0:
			return fmt.Errorf("system: %q envelope has non-positive footprint", s.Name)
		case math.IsNaN(fp) || math.IsInf(fp, 0):
			return fmt.Errorf("system: %q envelope has non-finite footprint %v", s.Name, fp)
		case math.IsNaN(ip) || math.IsInf(ip, 0):
			return fmt.Errorf("system: %q envelope has non-finite interposer area %v", s.Name, ip)
		case ip < 0:
			return fmt.Errorf("system: %q envelope has negative interposer area %v", s.Name, ip)
		}
	}
	// Chiplet names must be used consistently: one name, one design.
	// Each placement is checked against the first placement with its
	// name, and a placement of several copies against itself, so a
	// die whose area is NaN fails as it would against any other copy.
	var first map[string]int // placements beyond nameScanMax only
	if len(s.Placements) > nameScanMax {
		first = make(map[string]int, len(s.Placements))
	}
	for i := range s.Placements {
		c := &s.Placements[i].Chiplet
		j := i
		if first != nil {
			if f, ok := first[c.Name]; ok {
				j = f
			} else {
				first[c.Name] = i
			}
		} else {
			for f := 0; f < i; f++ {
				if s.Placements[f].Chiplet.Name == c.Name {
					j = f
					break
				}
			}
		}
		if j == i && s.Placements[i].Count == 1 {
			continue
		}
		if prev := &s.Placements[j].Chiplet; prev.Node != c.Node || prev.DieArea() != c.DieArea() {
			return fmt.Errorf("system: %q uses chiplet name %q for two different designs",
				s.Name, c.Name)
		}
	}
	return nil
}

// nameScanMax bounds Validate's pairwise search for the first
// placement with a chiplet's name, which keeps validation
// allocation-free; a wider system indexes the names in a map instead.
const nameScanMax = 64

// PackageKey returns the packaging partial key of s's package for n
// dies whose areas sum, in die order, to totalDieAreaMM2: the scheme,
// the flow and any reused envelope's footprint and interposer.
func (s System) PackageKey(n int, totalDieAreaMM2 float64) packaging.PartialKey {
	k := packaging.PartialKey{Scheme: s.Scheme, Flow: s.Flow, Dies: n, TotalDieAreaMM2: totalDieAreaMM2}
	if s.Envelope != nil {
		k.FootprintOverrideMM2 = s.Envelope.FootprintMM2
		k.InterposerOverrideMM2 = s.Envelope.InterposerAreaMM2
	}
	return k
}
