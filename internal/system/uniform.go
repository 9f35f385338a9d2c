package system

import (
	"fmt"

	"chipletactuary/internal/packaging"
)

// Uniform describes a system of k identical single-module chiplets —
// the shape every sweep candidate produced by PartitionEqual has.
// The cost and NRE engines use it to take a closed-form fast path
// whose arithmetic is bit-identical to the general per-placement
// walk, skipping the maps, sorts, and slices the general path needs.
type Uniform struct {
	K             int
	Node          string
	ModuleAreaMM2 float64 // per-chiplet module area
	D2DAreaMM2    float64 // per-chiplet D2D overhead area
	DieAreaMM2    float64 // ModuleAreaMM2 + D2DAreaMM2, in that order
}

// uniformMaxK bounds the O(k²) pairwise name-distinctness check; a
// wider system falls back to the general path, which is correct for
// any shape.
const uniformMaxK = 64

// AsUniform reports whether s is a uniform k-way system the engines
// can evaluate on the closed-form fast path. The detection is
// deliberately conservative: any shape it cannot prove equivalent —
// envelopes, salvage, multi-module chiplets, mixed nodes or areas,
// counts beyond 1, name collisions (which the slow path rejects with
// specific errors) — returns false, and the caller takes the general
// path. Validation errors the fast path CAN reproduce exactly
// (unknown node, negative quantity, zero volume, packaging
// infeasibility) do not disqualify a system.
//
// It runs once per sweep candidate: callers holding the proof pass u
// on (the evaluator's uniform-shape table, keyed by u's node, K and
// areas plus the scheme and flow; on a failure, cost.Engine.REUniform
// and nre.Engine.EvaluateUniform) rather than proving it again. Each
// chiplet's module area is read once, and the O(k²) name-distinctness
// check rejects on the last byte first, where PartitionEqual's names
// ("…-chiplet-1", "…-chiplet-2") differ.
func AsUniform(s System) (Uniform, bool) {
	if s.Name == "" || s.Envelope != nil {
		return Uniform{}, false
	}
	k := len(s.Placements)
	if k < 1 || k > uniformMaxK {
		return Uniform{}, false
	}
	if s.Scheme == packaging.SoC && k != 1 {
		return Uniform{}, false
	}
	var u Uniform
	for i := range s.Placements {
		p := &s.Placements[i]
		if p.Count != 1 {
			return Uniform{}, false
		}
		c := &p.Chiplet
		if c.Name == "" || c.Salvage != nil || len(c.Modules) != 1 {
			return Uniform{}, false
		}
		m := &c.Modules[0]
		// With one module, Chiplet.ModuleArea's sum is 0 + area, which
		// is area itself for every area this check admits.
		modArea := m.AreaMM2
		if m.Name == "" || !(modArea > 0) {
			return Uniform{}, false
		}
		// D2DArea/DieArea exactly as Chiplet computes them, so
		// downstream math sees the same bits.
		var d2dArea float64
		if c.D2D != nil {
			d2dArea = c.D2D.Area(modArea)
		}
		dieArea := modArea + d2dArea
		if !(dieArea > 0) { // rejects NaN and non-positive too
			return Uniform{}, false
		}
		if i == 0 {
			u = Uniform{K: k, Node: c.Node, ModuleAreaMM2: modArea, D2DAreaMM2: d2dArea, DieAreaMM2: dieArea}
			continue
		}
		if c.Node != u.Node || modArea != u.ModuleAreaMM2 || d2dArea != u.D2DAreaMM2 {
			return Uniform{}, false
		}
		// The slow path errors on duplicate chiplet names (consistency
		// map) and duplicate NRE design keys; bail to it.
		for j := 0; j < i; j++ {
			prev := &s.Placements[j].Chiplet
			if sameName(prev.Name, c.Name) || sameName(prev.Modules[0].Name, m.Name) {
				return Uniform{}, false
			}
		}
	}
	return u, true
}

// PackageKey returns the packaging partial key of a uniform system
// under the given scheme and flow: k dies whose areas sum, in die
// order, as Assembly.TotalDieArea sums them.
func (u Uniform) PackageKey(scheme packaging.Scheme, flow packaging.Flow) packaging.PartialKey {
	var total float64
	for i := 0; i < u.K; i++ {
		total += u.DieAreaMM2
	}
	return packaging.PartialKey{Scheme: scheme, Flow: flow, Dies: u.K, TotalDieAreaMM2: total}
}

// sameName reports a == b for non-empty names, comparing the last
// bytes before the full strings.
func sameName(a, b string) bool {
	return len(a) == len(b) && a[len(a)-1] == b[len(b)-1] && a == b
}

// WrapUniformNodeErr reproduces, byte for byte, the error chain
// System.Validate produces when the (shared) node of a uniform
// system's chiplets is unknown: Chiplet.Validate's wrap inside
// System.Validate's wrap around the tech database error.
func WrapUniformNodeErr(s System, err error) error {
	inner := fmt.Errorf("system: chiplet %q: %w", s.Placements[0].Chiplet.Name, err)
	return fmt.Errorf("system: %q: %w", s.Name, inner)
}
