// Package cost computes the recurring-engineering (RE) cost of a
// system: the five-part breakdown of the paper's §3.2 — cost of raw
// chips, cost of chip defects, cost of the raw package, cost of
// package defects, and cost of known-good dies wasted by packaging
// defects. Bumping and wafer-sort costs are included inside the chip
// components but not itemized, exactly as the paper does.
package cost

import (
	"fmt"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/wafer"
	"chipletactuary/internal/yield"
)

// ErrDoesNotFitWafer is wrapped by die-cost and wafer-demand answers
// when a die (or interposer) is too large for even one placement on
// the production wafer. It is the wafer layer's sentinel, re-exported
// so cost-level callers can classify with errors.Is instead of
// matching message text.
var ErrDoesNotFitWafer = wafer.ErrDoesNotFit

// Engine evaluates RE costs against a technology database and a
// packaging parameter set.
type Engine struct {
	db       *tech.Database
	params   packaging.Params
	cache    *KGDCache               // nil when memoization is disabled
	partials *packaging.PartialCache // nil when partial memoization is disabled
}

// NewEngine builds an engine, validating the packaging parameters.
func NewEngine(db *tech.Database, params packaging.Params) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("cost: nil technology database")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, params: params}, nil
}

// NewEngineWithCache builds an engine whose per-die evaluations are
// memoized in a bounded cache of cacheSize entries, keyed by DieKey.
// The cache is safe for concurrent use, so one engine can be shared
// by the workers of a batch session; cacheSize ≤ 0 disables it.
func NewEngineWithCache(db *tech.Database, params packaging.Params, cacheSize int) (*Engine, error) {
	e, err := NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	e.cache = newKGDCache(cacheSize, db)
	return e, nil
}

// NewEngineWithCaches additionally attaches a packaging partial cache
// (typically shared with the NRE engine of the same evaluator, so
// each sweep point prices its package once rather than once per
// engine). A nil partials cache disables partial memoization; the
// uniform fast path still runs, just cache-less.
func NewEngineWithCaches(db *tech.Database, params packaging.Params, cacheSize int, partials *packaging.PartialCache) (*Engine, error) {
	e, err := NewEngineWithCache(db, params, cacheSize)
	if err != nil {
		return nil, err
	}
	e.partials = partials
	return e, nil
}

// CacheStats reports the KGD cache's hit/miss counters. The zero
// value is returned when the cache is disabled.
func (e *Engine) CacheStats() CacheStats {
	st := e.cache.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries}
}

// DB returns the engine's technology database.
func (e *Engine) DB() *tech.Database { return e.db }

// Params returns the engine's packaging parameters.
func (e *Engine) Params() packaging.Params { return e.params }

// DieCost is the manufacturing cost detail of one die.
type DieCost struct {
	// Name and Node identify the chiplet design.
	Name string
	Node string
	// AreaMM2 is the die area (modules + D2D).
	AreaMM2 float64
	// Raw is the die's share of the wafer: waferCost/DPW, plus bump
	// and wafer-sort costs.
	Raw float64
	// Yield is the die yield from Eq. (1) — or, when the chiplet
	// enables salvage, the value-weighted effective yield.
	Yield float64
	// KGD is the cost of one known-good die: Raw/Yield.
	KGD float64
}

// Breakdown is the five-part RE cost of one system unit (§3.2).
type Breakdown struct {
	// RawChips is the defect-free manufacturing cost of all dies
	// (wafer share + bumping + wafer sort).
	RawChips float64
	// ChipDefects is the extra die spend caused by imperfect die
	// yield: Σ raw·(1/Y − 1).
	ChipDefects float64
	// RawPackage is the defect-free package cost (substrate,
	// interposer, assembly).
	RawPackage float64
	// PackageDefects is the extra packaging spend caused by packaging
	// yield loss.
	PackageDefects float64
	// WastedKGD is the value of known-good dies destroyed by
	// packaging defects.
	WastedKGD float64

	// Dies details each die, in placement order.
	Dies []DieCost
	// Packaging carries the geometry and yields behind the packaging
	// components.
	Packaging packaging.Result
}

// Total returns the full RE cost per system unit.
func (b Breakdown) Total() float64 {
	return b.RawChips + b.ChipDefects + b.RawPackage + b.PackageDefects + b.WastedKGD
}

// ChipsTotal returns the die-related cost (raw + defects).
func (b Breakdown) ChipsTotal() float64 { return b.RawChips + b.ChipDefects }

// PackagingTotal returns the packaging-related cost: raw package +
// package defects + wasted KGDs ("the cost of packaging" in the
// paper's Figure 5 note).
func (b Breakdown) PackagingTotal() float64 {
	return b.RawPackage + b.PackageDefects + b.WastedKGD
}

// WaferDemand is the production-planning view of a system: how many
// wafer starts each node needs to ship the given quantity, accounting
// for die yield and packaging losses.
type WaferDemand struct {
	// WafersByNode maps process node → wafer starts (fractional).
	WafersByNode map[string]float64
	// DiesByNode maps process node → raw dies fabricated.
	DiesByNode map[string]float64
}

// Wafers computes the wafer demand for producing quantity good units
// of the system. Each shipped unit consumes 1/packagingYield
// assembled attempts, and each attempted die consumes 1/dieYield raw
// dies.
func (e *Engine) Wafers(s system.System, quantity float64) (WaferDemand, error) {
	if quantity <= 0 {
		return WaferDemand{}, fmt.Errorf("cost: quantity %v must be positive", quantity)
	}
	b, err := e.RE(s)
	if err != nil {
		return WaferDemand{}, err
	}
	d := WaferDemand{
		WafersByNode: make(map[string]float64),
		DiesByNode:   make(map[string]float64),
	}
	attempts := quantity / b.Packaging.Yield
	for _, die := range b.Dies {
		rawDies := attempts / die.Yield
		dpw := e.params.Wafer.DiesPerWafer(e.params.Estimator, die.AreaMM2)
		if dpw <= 0 {
			return WaferDemand{}, fmt.Errorf("cost: die %q %w", die.Name, ErrDoesNotFitWafer)
		}
		d.DiesByNode[die.Node] += rawDies
		d.WafersByNode[die.Node] += rawDies / float64(dpw)
	}
	// Interposer wafers for advanced packaging.
	if s.Scheme.HasInterposer() {
		intNode := s.Scheme.InterposerNode()
		id, err := e.db.NodeID(intNode)
		if err != nil {
			return WaferDemand{}, err
		}
		node := e.db.NodeByID(id)
		intArea := b.Packaging.InterposerAreaMM2
		y1 := node.Yield(intArea)
		dpw := e.params.Wafer.DiesPerWafer(e.params.Estimator, intArea)
		if dpw <= 0 {
			return WaferDemand{}, fmt.Errorf("cost: interposer %w", ErrDoesNotFitWafer)
		}
		rawInterposers := attempts / y1
		d.DiesByNode[intNode] += rawInterposers
		d.WafersByNode[intNode] += rawInterposers / float64(dpw)
	}
	return d, nil
}

// REFloor returns a cheap lower bound on the RE cost of a uniform
// k-way system: k × KGD(node, dieArea). RawChips + ChipDefects is
// exactly Σ raw/yield = Σ KGD, and the packaging components (raw
// package, package defects, wasted KGDs) are non-negative under
// validated parameters, so RE ≥ k·KGD — and any total that adds
// non-negative NRE amortization on top is bounded too. The bound costs
// one KGD-cache lookup per distinct (node, area) after the first
// probe, which makes it cheap enough to run per candidate before
// evaluation (adaptive-search pruning).
//
// The boolean is false when no sound bound is available: a shape the
// uniform detector cannot prove (salvage, envelopes, mixed dies), an
// unknown node, or a die priced below zero or at NaN (defensive: node
// validation rejects the negative and non-finite parameters that could
// price one). Callers must treat false as "cannot prune", never as an
// error — the evaluation path owns error reporting.
func (e *Engine) REFloor(s system.System) (float64, bool) {
	u, ok := system.AsUniform(s)
	if !ok {
		return 0, false
	}
	var tally cacheTally
	var dc DieCost
	if err := e.dieCost(&s.Placements[0].Chiplet, u.DieAreaMM2, &tally, &dc); err != nil || !(dc.KGD >= 0) {
		return 0, false
	}
	e.cache.Note(tally.hits, tally.misses)
	return float64(u.K) * dc.KGD, true
}

// dieCost evaluates one die of the given area (c.DieArea(), or the
// bit-identical Uniform.DieAreaMM2) into *dc, consulting the KGD cache
// when enabled.
func (e *Engine) dieCost(c *system.Chiplet, area float64, tally *cacheTally, dc *DieCost) error {
	id, err := e.db.NodeID(c.Node)
	if err != nil {
		return err
	}
	return e.dieCostAt(c, id, area, tally, dc)
}

// dieCostAt is dieCost for a chiplet on the node with database id id.
// It writes *dc only when it returns no error.
func (e *Engine) dieCostAt(c *system.Chiplet, id int, area float64, tally *cacheTally, dc *DieCost) error {
	key := dieKey{node: id, areaMM2: area}
	if c.Salvage != nil {
		key.salvageFraction = c.Salvage.Fraction
		key.salvageValue = c.Salvage.Value
	}
	if e.cache != nil {
		var v dieValue
		if e.cache.Peek(key, &v) {
			tally.hits++
			*dc = DieCost{Name: c.Name, Node: c.Node, AreaMM2: area, Raw: v.raw, Yield: v.yield, KGD: v.raw / v.yield}
			return nil
		}
		tally.misses++
	}
	node := e.db.NodeByID(id)
	perDie, err := e.params.Wafer.CostPerRawDie(e.params.Estimator, node.WaferCost, area)
	if err != nil {
		return fmt.Errorf("cost: die %q: %w", c.Name, err)
	}
	raw := perDie + (node.BumpCostPerMM2+node.SortCostPerMM2)*area
	y := node.Yield(area)
	if c.Salvage != nil {
		// Partial-good harvesting credits degraded bins against
		// this die's cost (yield.Salvage).
		y = yield.Salvage{
			Model:               node.YieldModel(),
			SalvageableFraction: c.Salvage.Fraction,
			SalvageValue:        c.Salvage.Value,
		}.EffectiveYield(area)
	}
	kgd := raw / y
	e.cache.Put(key, dieValue{raw: raw, yield: y})
	*dc = DieCost{Name: c.Name, Node: c.Node, AreaMM2: area, Raw: raw, Yield: y, KGD: kgd}
	return nil
}

// RE computes the recurring cost of one unit of the system. Systems
// the detector can prove uniform (the shape every sweep candidate
// has) take the closed-form fast path, REUniform, with bit-identical
// results; any other shape takes the general per-placement walk.
func (e *Engine) RE(s system.System) (Breakdown, error) {
	var b Breakdown
	var err error
	if u, ok := system.AsUniform(s); ok {
		err = e.REUniform(&s, u, &b)
	} else {
		err = e.reSlow(&s, &b)
	}
	return b, err
}

// The functions below fill a Breakdown the caller owns instead of
// returning one: a Breakdown is 160 bytes, and the portfolio and sweep
// paths write each answer straight into its final place. Each leaves
// *b the zero Breakdown when it returns an error.

// REUniform evaluates a uniform k-way system into *b with one die
// evaluation and one (memoizable) packaging partial, reproducing the
// general walk's arithmetic — including its error messages and cache
// accounting — bit for bit. It is the RE twin of
// nre.Engine.EvaluateUniform: callers that already proved s uniform
// pass the proof on instead of proving it again, and must pass a u
// obtained from system.AsUniform(*s).
func (e *Engine) REUniform(s *system.System, u system.Uniform, b *Breakdown) error {
	// Zero first, so that an error before the breakdown is written
	// leaves it zero; the general walk zeroes its own.
	*b = Breakdown{}
	// Validate-order errors this shape can still produce: unknown
	// node first (from the placement walk), then negative quantity.
	id, err := e.db.NodeID(u.Node)
	if err != nil {
		return system.WrapUniformNodeErr(*s, err)
	}
	if s.Quantity < 0 {
		return fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	dc, err := e.UniformDie(s, u, id)
	if err != nil {
		return err
	}
	if !(dc.KGD >= 0) {
		// Node validation rejects negative and non-finite parameters,
		// so a validated database cannot price a die below zero or at
		// NaN. Should one, the general path owns that case (it rejects
		// a KGD below zero in assembly validation), so let it.
		return e.reSlow(s, b)
	}
	var pt packaging.Partial
	if err := packaging.CachedPartial(e.partials, &e.params, e.db, u.PackageKey(s.Scheme, s.Flow), &pt); err != nil {
		return err
	}
	UniformBreakdown(s, u, dc.Raw, dc.Yield, &pt, b)
	return nil
}

// UniformDie prices the die all k chiplets of a uniform system share,
// on the node with database id id, with one KGD probe, as REUniform
// does. A die priced at a KGD of zero or more books that probe as the
// per-die walk's k probes: its outcome plus k−1 hits. Any other
// outcome (an error, or a KGD below zero or NaN, which a validated
// database cannot produce) books nothing; REUniform then reports the
// error or takes the general walk, which books its own probes.
func (e *Engine) UniformDie(s *system.System, u system.Uniform, id int) (DieCost, error) {
	var tally cacheTally
	var dc DieCost
	if err := e.dieCostAt(&s.Placements[0].Chiplet, id, u.DieAreaMM2, &tally, &dc); err != nil || !(dc.KGD >= 0) {
		return dc, err
	}
	tally.hits += int64(u.K - 1)
	e.cache.Note(tally.hits, tally.misses)
	return dc, nil
}

// UniformBreakdown writes into *b the RE breakdown of a uniform system
// whose k dies each price at raw and yield and whose package prices as
// pt: the per-die walk's k in-order sums, then pt applied to the summed
// KGD cost. REUniform and the evaluator's uniform-shape table both
// build their answers here, so both carry the general walk's bits.
func UniformBreakdown(s *system.System, u system.Uniform, raw, yield float64, pt *packaging.Partial, b *Breakdown) {
	kgd := raw / yield
	*b = Breakdown{Dies: make([]DieCost, u.K)}
	var totalKGD float64
	for i := range b.Dies {
		// Field by field into the zeroed entry: no per-die copy.
		d := &b.Dies[i]
		d.Name = s.Placements[i].Chiplet.Name
		d.Node = u.Node
		d.AreaMM2 = u.DieAreaMM2
		d.Raw = raw
		d.Yield = yield
		d.KGD = kgd
		b.RawChips += raw
		b.ChipDefects += raw * (1/yield - 1)
		totalKGD += kgd
	}
	b.applyPackage(pt, totalKGD)
}

// applyPackage completes b with the package pt prices to for dies whose
// KGD costs sum to totalKGD.
func (b *Breakdown) applyPackage(pt *packaging.Partial, totalKGD float64) {
	pt.Apply(totalKGD, &b.Packaging)
	b.RawPackage = b.Packaging.RawPackage
	b.PackageDefects = b.Packaging.PackageDefects
	b.WastedKGD = b.Packaging.WastedKGD
}

// reSlow is the general per-placement walk on a system it validates
// first. It checks the assembly as packaging.Package would and prices
// the package from the (shared, possibly nil) partial cache, so a
// system whose NRE geometry probe already priced its package finds it
// there.
func (e *Engine) reSlow(s *system.System, b *Breakdown) error {
	if err := s.Validate(e.db); err != nil {
		*b = Breakdown{}
		return err
	}
	return e.placements(s, nil, nil, b)
}

// REPackaged is RE into *b for a system that has passed System.Validate
// and whose package prices as pt: what nre.Engine.PerUnitPackaged hands
// on once its portfolio walk has validated every member and priced its
// package. It skips the validation, the uniform proof and the partial
// probe RE would repeat, and answers bit for bit as RE does, with the
// same errors and the same KGD counters.
//
// b.Dies becomes dies, which must hold exactly s.DieCount() entries,
// when dies is non-nil, so that a caller pricing many systems can carve
// every Dies from one block; a nil dies allocates b.Dies. On an error
// the contents of dies are unspecified.
func (e *Engine) REPackaged(s *system.System, pt *packaging.Partial, dies []DieCost, b *Breakdown) error {
	return e.placements(s, pt, dies, b)
}

// placements is the general per-placement walk behind reSlow and
// REPackaged, with b.Dies taken from dies unless it is nil. It prices
// each placement's die once, straight into its first slot of b.Dies,
// and books the other Count−1 copies as the KGD hits a per-die walk
// would make; it lays out every die in die order, checks the dies' KGD
// costs as packaging.Package would, and applies the package partial: pt
// when the caller has priced it (and so checked the dies' areas and
// count), otherwise one probe of the partial cache after those checks.
func (e *Engine) placements(s *system.System, pt *packaging.Partial, dies []DieCost, b *Breakdown) error {
	err := e.walkDies(s, pt, dies, b)
	if err != nil {
		*b = Breakdown{}
	}
	return err
}

// walkDies is placements, which zeroes *b on an error. Every entry of
// b.Dies is written whole, so dies need not be zero.
func (e *Engine) walkDies(s *system.System, pt *packaging.Partial, dies []DieCost, b *Breakdown) error {
	if dies == nil {
		dies = make([]DieCost, s.DieCount())
	}
	*b = Breakdown{Dies: dies}
	var tally cacheTally
	var totalArea, totalKGD float64
	n := 0
	for i := range s.Placements {
		p := &s.Placements[i]
		dc := &b.Dies[n]
		if err := e.dieCost(&p.Chiplet, p.Chiplet.DieArea(), &tally, dc); err != nil {
			return err
		}
		tally.hits += int64(p.Count - 1)
		for c := 0; c < p.Count; c++ {
			if c > 0 {
				b.Dies[n] = *dc
			}
			b.RawChips += dc.Raw
			b.ChipDefects += dc.Raw * (1/dc.Yield - 1)
			totalArea += dc.AreaMM2
			totalKGD += dc.KGD
			n++
		}
	}
	e.cache.Note(tally.hits, tally.misses)

	for i := range b.Dies {
		if err := packaging.CheckDie(i, b.Dies[i].AreaMM2, b.Dies[i].KGD); err != nil {
			return err
		}
	}
	if pt == nil {
		if err := packaging.CheckDieCount(s.Scheme, len(b.Dies)); err != nil {
			return err
		}
		var probed packaging.Partial
		if err := packaging.CachedPartial(e.partials, &e.params, e.db, s.PackageKey(len(b.Dies), totalArea), &probed); err != nil {
			return err
		}
		pt = &probed
	}
	b.applyPackage(pt, totalKGD)
	return nil
}
