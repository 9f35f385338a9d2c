package nre

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// NewEngineWithCaches builds an engine whose package geometry probes
// go through the given partial cache — typically the same instance the
// evaluator's cost engine uses, so a sweep point prices its package
// once across both engines. A nil partials cache just disables that
// sharing.
func NewEngineWithCaches(db *tech.Database, params packaging.Params, partials *packaging.PartialCache) (*Engine, error) {
	e, err := NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	e.partials = partials
	return e, nil
}

// EvaluateUniform computes the per-unit NRE breakdown of a uniform
// k-way system on the closed-form fast path, bit-identical to
// Portfolio([]system.System{s}).PerUnit[s.Name] — including error
// messages and their ordering. Callers must pass a u obtained from
// system.AsUniform(s).
func (e *Engine) EvaluateUniform(s system.System, u system.Uniform, policy Policy) (Breakdown, error) {
	// Error order mirrors the general path: validation (unknown node,
	// negative quantity), then package geometry, then amortization.
	node, err := e.db.Node(u.Node)
	if err != nil {
		return Breakdown{}, system.WrapUniformNodeErr(s, err)
	}
	if s.Quantity < 0 {
		return Breakdown{}, fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	pt, err := packaging.CachedPartial(e.partials, e.params, e.db, u.PackageKey(s.Scheme, s.Flow))
	if err != nil {
		return Breakdown{}, err
	}
	q := s.Quantity
	if q == 0 {
		// The general path reports the first design in sorted key
		// order; "chip/" sorts before "d2d/", "module/", "pkg/", so
		// that is the lexicographically smallest chiplet name.
		min := s.Placements[0].Chiplet.Name
		for i := 1; i < len(s.Placements); i++ {
			if n := s.Placements[i].Chiplet.Name; n < min {
				min = n
			}
		}
		return Breakdown{}, fmt.Errorf("nre: design %q has no production volume to amortize over", "chip/"+min)
	}
	return AmortizeUniform(&node, u, s.Scheme, &pt, q, policy), nil
}

// AmortizeUniform is the per-unit NRE of a uniform system on node,
// whose package under scheme prices as pt, at production quantity q:
// EvaluateUniform's answer once validation and package pricing have
// passed. The design costs are those the general walk claims — chip
// Kc·S + C, module Km·S, the node's D2D design when the chiplets carry
// an interface, package Kp·(substrate + interposer) + Cp — and each is
// spread over the volume in the general path's expression shape, so
// the bits match. The evaluator's uniform-shape table prices here too.
func AmortizeUniform(node *tech.Node, u system.Uniform, scheme packaging.Scheme, pt *packaging.Partial,
	q float64, policy Policy) Breakdown {
	k := u.K
	chipCost := node.Kc*u.DieAreaMM2 + node.FixedChipNRE
	moduleCost := node.Km * u.ModuleAreaMM2
	kp, fixed := scheme.NREFactors()
	pkgCost := kp*(pt.Result.SubstrateAreaMM2+pt.Result.InterposerAreaMM2) + fixed
	var b Breakdown
	switch policy {
	case PerInstance:
		// Module, chip and package designs mount one instance per
		// system unit, so their shares reduce to (cost·1)/(q·1); the
		// D2D design accumulates one instance per placement, giving
		// (cost·k)/(q·k). Both are written in the general path's
		// exact expression shape to preserve the bits.
		denom1 := q * 1.0
		cShare := chipCost * 1.0 / denom1
		mShare := moduleCost * 1.0 / denom1
		for i := 0; i < k; i++ {
			b.Chips += cShare
		}
		for i := 0; i < k; i++ {
			b.Modules += mShare
		}
		if u.D2DAreaMM2 > 0 {
			kf := float64(k)
			b.D2D += node.D2DNRE * kf / (q * kf)
		}
		b.Packages += pkgCost * 1.0 / denom1
	default:
		cShare := chipCost / q
		mShare := moduleCost / q
		for i := 0; i < k; i++ {
			b.Chips += cShare
		}
		for i := 0; i < k; i++ {
			b.Modules += mShare
		}
		if u.D2DAreaMM2 > 0 {
			b.D2D += node.D2DNRE / q
		}
		b.Packages += pkgCost / q
	}
	return b
}
