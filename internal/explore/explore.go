// Package explore provides the decision-support layer the paper's §6
// motivates: total-cost evaluation (RE + amortized NRE), production
// quantity and die-area crossover finders ("when does multi-chip
// start to pay back?"), optimal chiplet-count search and the marginal
// utility of finer granularity, plus one-at-a-time parameter
// sensitivity.
package explore

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/memo"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/sweep"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// ErrInfeasible is wrapped by the decision finders when the question
// has no answer in the searched space — a challenger that never pays
// back, a sweep with no manufacturable partition, a bracket with no
// crossover. Callers can classify these outcomes with errors.Is and
// distinguish them from configuration mistakes.
var ErrInfeasible = errors.New("infeasible")

// Evaluator bundles the RE and NRE engines over one parameter set.
type Evaluator struct {
	Cost *cost.Engine
	NRE  *nre.Engine

	db *tech.Database
	// partials is the packaging partial cache shared by both engines
	// and the shape table; shapes is the uniform-shape table Single
	// prices from. Both are nil when disabled.
	partials *packaging.PartialCache
	shapes   *shapeCache
}

// NewEvaluator builds an evaluator from a database and packaging
// parameters.
func NewEvaluator(db *tech.Database, params packaging.Params) (*Evaluator, error) {
	ce, err := cost.NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	ne, err := nre.NewEngine(db, params)
	if err != nil {
		return nil, err
	}
	return &Evaluator{Cost: ce, NRE: ne, db: db}, nil
}

// NewEvaluatorWithCache builds an evaluator whose cost engine memoizes
// die evaluations in a bounded concurrent cache (see cost.DieKey).
// Sweeps and portfolios revisit the same die shapes constantly, so a
// shared cache removes most of the per-request yield/geometry work.
func NewEvaluatorWithCache(db *tech.Database, params packaging.Params, cacheSize int) (*Evaluator, error) {
	return NewEvaluatorWithCaches(db, params, cacheSize, DefaultPartialsCacheSize)
}

// DefaultPartialsCacheSize bounds the packaging-partial and
// uniform-shape tables when the caller does not size them explicitly.
// An innermost-axis run touches one package and one shape key per
// point, so the working set is roughly one entry per in-flight point —
// 8k entries comfortably covers a slab-dispatched sweep. The two
// tables are preallocated at this size and never grow, and their
// entries hold no pointer, so the collector never scans them: together
// they hold 2.88 MiB from construction on (1.5 MiB for the partials,
// 1.38 MiB for the shapes at 160 bytes an entry; 0.32 MiB more for a
// 4096-entry KGD cache).
const DefaultPartialsCacheSize = 8192

// NewEvaluatorWithCaches additionally bounds the partial caches: one
// packaging partial cache shared by the cost and NRE engines and the
// shape table (so each sweep point prices its package geometry once,
// not once per engine), and the uniform-shape table, which holds each
// uniform shape's die and package price so that Single answers a
// repeated uniform point with one probe. partialsSize ≤ 0 disables
// both; the closed-form uniform path still runs, just table-less.
func NewEvaluatorWithCaches(db *tech.Database, params packaging.Params, cacheSize, partialsSize int) (*Evaluator, error) {
	pc := packaging.NewPartialCache(partialsSize)
	ce, err := cost.NewEngineWithCaches(db, params, cacheSize, pc)
	if err != nil {
		return nil, err
	}
	ne, err := nre.NewEngineWithCaches(db, params, pc)
	if err != nil {
		return nil, err
	}
	return &Evaluator{Cost: ce, NRE: ne, db: db, partials: pc, shapes: newShapeCache(partialsSize, db)}, nil
}

// PartialsStats reports the partial-memoization counters: Packaging
// for the shared packaging partial cache, NRE for the uniform-shape
// table (the counters perfbench reports as nre.uniform_hit_ratio).
// Both are zero when partial caching is disabled. A shape-table hit
// answers its point whole, so the packaging counters (and the KGD
// cache's) count only the probes the shape table did not answer.
type PartialsStats struct {
	Packaging memo.Stats
	NRE       memo.Stats
}

// PartialsCacheStats snapshots the evaluator's partial caches.
func (e *Evaluator) PartialsCacheStats() PartialsStats {
	return PartialsStats{
		Packaging: e.partials.Stats(),
		NRE:       e.shapes.Stats(),
	}
}

// TotalCost is the complete per-unit engineering cost of one system.
type TotalCost struct {
	RE  cost.Breakdown
	NRE nre.Breakdown
}

// Total returns RE plus amortized NRE per unit.
func (t TotalCost) Total() float64 { return t.RE.Total() + t.NRE.Total() }

// NREShare returns the amortized-NRE fraction of the total.
func (t TotalCost) NREShare() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return t.NRE.Total() / total
}

// Single evaluates a standalone system (a one-member portfolio).
// Uniform systems — the shape every sweep candidate has — are proved
// uniform once and priced from the uniform-shape table: one probe for
// a shape seen before, whose die and package price are reused and
// whose NRE is recomputed from the node, with results bit-identical
// to the general walk. A uniform system the shape path cannot price
// (an error case) takes the step path — NRE.EvaluateUniform, then
// Cost.REUniform — which reports the error exactly, including its
// order: like Portfolio, NRE validation errors surface before RE ones.
// Any other shape is priced as a one-member Portfolio.
func (e *Evaluator) Single(s system.System, policy nre.Policy) (TotalCost, error) {
	if u, ok := system.AsUniform(s); ok {
		if tc, ok := e.singleShape(s, u, policy); ok {
			return tc, nil
		}
		nb, err := e.NRE.EvaluateUniform(s, u, policy)
		if err != nil {
			return TotalCost{}, err
		}
		re, err := e.Cost.REUniform(s, u)
		if err != nil {
			return TotalCost{}, err
		}
		return TotalCost{RE: re, NRE: nb}, nil
	}
	nres, err := e.NRE.PerUnit([]system.System{s}, policy)
	if err != nil {
		return TotalCost{}, err
	}
	re, err := e.Cost.RE(s)
	if err != nil {
		return TotalCost{}, err
	}
	return TotalCost{RE: re, NRE: nres[0]}, nil
}

// Portfolio evaluates a family of systems that share designs, keyed by
// system name. Each system's NRE geometry probe and its RE evaluation
// price its package once, through the evaluator's shared partial
// cache.
func (e *Evaluator) Portfolio(systems []system.System, policy nre.Policy) (map[string]TotalCost, error) {
	nres, err := e.NRE.PerUnit(systems, policy)
	if err != nil {
		return nil, err
	}
	out := make(map[string]TotalCost, len(systems))
	for i, s := range systems {
		re, err := e.Cost.RE(s)
		if err != nil {
			return nil, err
		}
		out[s.Name] = TotalCost{RE: re, NRE: nres[i]}
	}
	return out, nil
}

// CrossoverQuantity returns the production quantity at which the
// challenger's total per-unit cost drops to the incumbent's. Both
// systems are evaluated standalone with quantity-independent RE and a
// fixed one-time NRE, so the crossover solves
//
//	RE_i + NRE_i/q = RE_c + NRE_c/q.
//
// It returns an error when the challenger never pays back (its RE is
// not lower) or is simply dominant (cheaper in both RE and NRE).
func (e *Evaluator) CrossoverQuantity(incumbent, challenger system.System) (float64, error) {
	// Quantity only scales amortization; evaluate at 1 unit to get
	// total NRE directly.
	inc, cha := incumbent, challenger
	inc.Quantity, cha.Quantity = 1, 1
	ti, err := e.Single(inc, nre.PerSystemUnit)
	if err != nil {
		return 0, err
	}
	tc, err := e.Single(cha, nre.PerSystemUnit)
	if err != nil {
		return 0, err
	}
	reI, reC := ti.RE.Total(), tc.RE.Total()
	nreI, nreC := ti.NRE.Total(), tc.NRE.Total() // evaluated at q=1 ⇒ totals
	if reC >= reI {
		if nreC >= nreI {
			return 0, fmt.Errorf("explore: %w: %q never pays back against %q (RE %.2f ≥ %.2f, NRE %.3g ≥ %.3g)",
				ErrInfeasible, challenger.Name, incumbent.Name, reC, reI, nreC, nreI)
		}
		return 0, fmt.Errorf("explore: %w: %q dominates %q outright on NRE with no RE penalty; no crossover",
			ErrInfeasible, challenger.Name, incumbent.Name)
	}
	if nreC <= nreI {
		return 0, nil // cheaper on both axes: pays back immediately
	}
	return (nreC - nreI) / (reI - reC), nil
}

// PartitionPoint is one entry of a chiplet-count sweep.
type PartitionPoint struct {
	Chiplets int
	Scheme   packaging.Scheme
	Total    TotalCost
}

// OptimalChipletCount sweeps k = 1..maxK (k = 1 is the monolithic SoC)
// for a module area on a node under a scheme and returns all feasible
// points plus the index of the cheapest. It runs on the shared
// generation primitive — a lazy sweep.Grid generator with reticle
// pruning — so the CLI, the Session and this library walk one
// pipeline. Infeasible partitions
// (a monolithic die beyond the reticle, an interposer beyond its
// limit) are skipped; an error is returned only when nothing is
// feasible.
func (e *Evaluator) OptimalChipletCount(node string, moduleAreaMM2 float64, maxK int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) ([]PartitionPoint, int, error) {
	if maxK < 1 {
		return nil, 0, fmt.Errorf("explore: maxK must be ≥ 1, got %d", maxK)
	}
	counts, err := sweep.CountRange(1, maxK)
	if err != nil {
		return nil, 0, fmt.Errorf("explore: %w", err)
	}
	grid := sweep.Grid{
		Name:       "k",
		Nodes:      []string{node},
		Schemes:    []packaging.Scheme{scheme},
		AreasMM2:   []float64{moduleAreaMM2},
		Counts:     counts,
		Quantities: []float64{quantity},
		D2D:        d2d,
	}
	var points []PartitionPoint
	var firstErr error
	best, bestCost := -1, 0.0
	gen := grid.Points(sweep.ReticleFit())
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		tc, err := e.Single(p.System, nre.PerSystemUnit)
		if err != nil {
			// Infeasible geometry: skip the point, but keep the first
			// cause so an all-failed sweep explains itself.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		points = append(points, PartitionPoint{Chiplets: p.K, Scheme: p.Scheme, Total: tc})
		if best == -1 || tc.Total() < bestCost {
			best, bestCost = len(points)-1, tc.Total()
		}
	}
	if len(points) == 0 {
		err := fmt.Errorf("explore: %w: no feasible partition of %.0f mm² on %s up to k=%d",
			ErrInfeasible, moduleAreaMM2, node, maxK)
		if firstErr != nil {
			// An unknown node stays classifiable as such: the taxonomy
			// layer checks it before infeasibility.
			err = fmt.Errorf("%w; first failure: %w", err, firstErr)
		}
		return nil, 0, err
	}
	return points, best, nil
}

// MarginalUtility returns the relative RE saving of moving from k to
// k+1 chiplets: (RE_k − RE_{k+1}) / RE_k. The paper's observation is
// that this decays quickly ("<10% at 5nm, 800 mm², MCM" for 3→5).
func (e *Evaluator) MarginalUtility(node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("explore: k must be ≥ 1, got %d", k)
	}
	re := func(kk int) (float64, error) {
		sch := scheme
		if kk == 1 {
			sch = packaging.SoC
		}
		s, err := system.PartitionEqual("m", node, moduleAreaMM2, kk, sch, d2d, 1)
		if err != nil {
			return 0, err
		}
		b, err := e.Cost.RE(s)
		if err != nil {
			return 0, err
		}
		return b.Total(), nil
	}
	a, err := re(k)
	if err != nil {
		return 0, err
	}
	b, err := re(k + 1)
	if err != nil {
		return 0, err
	}
	return (a - b) / a, nil
}

// AreaCrossover finds the smallest module area (within [loMM2, hiMM2])
// at which the k-chiplet multi-chip RE cost drops below the monolithic
// SoC RE cost on the same node — the "turning point" of §4.1. It
// bisects on the RE difference, which is monotone in area for the
// paper's models. An error is returned when no crossover lies in the
// bracket.
func (e *Evaluator) AreaCrossover(node string, k int, scheme packaging.Scheme,
	d2d dtod.Overhead, loMM2, hiMM2 float64) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("explore: need k ≥ 2 chiplets, got %d", k)
	}
	if loMM2 <= 0 || hiMM2 <= loMM2 {
		return 0, fmt.Errorf("explore: invalid bracket [%v, %v]", loMM2, hiMM2)
	}
	diff := func(area float64) (float64, error) {
		soc := system.Monolithic("soc", node, area, 1)
		reSoC, err := e.Cost.RE(soc)
		if err != nil {
			return 0, err
		}
		multi, err := system.PartitionEqual("multi", node, area, k, scheme, d2d, 1)
		if err != nil {
			return 0, err
		}
		reMulti, err := e.Cost.RE(multi)
		if err != nil {
			return 0, err
		}
		return reSoC.Total() - reMulti.Total(), nil
	}
	lo, err := diff(loMM2)
	if err != nil {
		return 0, err
	}
	hi, err := diff(hiMM2)
	if err != nil {
		return 0, err
	}
	if lo > 0 {
		return loMM2, nil // multi-chip already wins at the lower edge
	}
	if hi < 0 {
		return 0, fmt.Errorf("explore: %w: no crossover: %d-chiplet %v still loses to SoC at %.0f mm²",
			ErrInfeasible, k, scheme, hiMM2)
	}
	a, b := loMM2, hiMM2
	for i := 0; i < 80 && b-a > 1e-6*b; i++ {
		mid := (a + b) / 2
		d, err := diff(mid)
		if err != nil {
			return 0, err
		}
		if d < 0 {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2, nil
}

// SensitivityPoint records how the total cost of a reference system
// responds to a one-at-a-time parameter change.
type SensitivityPoint struct {
	Parameter string
	Low, High float64 // total cost at the perturbed parameter values
	Base      float64 // total cost at the default parameters
}

// Swing returns the absolute cost swing |High − Low|, the tornado-bar
// length.
func (p SensitivityPoint) Swing() float64 { return math.Abs(p.High - p.Low) }

// PackagingSensitivity perturbs the most uncertain packaging
// parameters by ±rel (e.g. 0.2 for ±20%) and reports the total-RE
// swing for the given system, sorted by descending swing.
func PackagingSensitivity(db *tech.Database, base packaging.Params,
	s system.System, rel float64) ([]SensitivityPoint, error) {
	if rel <= 0 || rel >= 1 {
		return nil, fmt.Errorf("explore: relative perturbation must be in (0,1), got %v", rel)
	}
	// One engine per distinct parameter set: perturbations that clamp
	// back to the base values (yields already at 1.0) reuse the base
	// engine instead of rebuilding one per evaluation.
	engines := make(map[packaging.Params]*cost.Engine)
	eval := func(p packaging.Params) (float64, error) {
		eng, ok := engines[p]
		if !ok {
			var err error
			if eng, err = cost.NewEngine(db, p); err != nil {
				return 0, err
			}
			engines[p] = eng
		}
		b, err := eng.RE(s)
		if err != nil {
			return 0, err
		}
		return b.Total(), nil
	}
	baseTotal, err := eval(base)
	if err != nil {
		return nil, err
	}
	knobs := []struct {
		name    string
		set     func(*packaging.Params, float64)
		get     func(packaging.Params) float64
		clampHi float64
	}{
		{"substrate $/layer/mm²", func(p *packaging.Params, v float64) { p.SubstrateCostPerLayerMM2 = v },
			func(p packaging.Params) float64 { return p.SubstrateCostPerLayerMM2 }, math.Inf(1)},
		{"micro-bump bond yield", func(p *packaging.Params, v float64) { p.MicroBumpBondYield = v },
			func(p packaging.Params) float64 { return p.MicroBumpBondYield }, 1},
		{"flip-chip bond yield", func(p *packaging.Params, v float64) { p.FlipChipBondYield = v },
			func(p packaging.Params) float64 { return p.FlipChipBondYield }, 1},
		{"substrate attach yield", func(p *packaging.Params, v float64) { p.SubstrateAttachYield = v },
			func(p packaging.Params) float64 { return p.SubstrateAttachYield }, 1},
		{"package area scale", func(p *packaging.Params, v float64) { p.PackageAreaScale = v },
			func(p packaging.Params) float64 { return p.PackageAreaScale }, math.Inf(1)},
		{"assembly base cost", func(p *packaging.Params, v float64) { p.AssemblyBase = v },
			func(p packaging.Params) float64 { return p.AssemblyBase }, math.Inf(1)},
	}
	var out []SensitivityPoint
	for _, k := range knobs {
		v := k.get(base)
		lowP, highP := base, base
		k.set(&lowP, v*(1-rel))
		k.set(&highP, math.Min(v*(1+rel), k.clampHi))
		low, err := eval(lowP)
		if err != nil {
			return nil, err
		}
		high, err := eval(highP)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{Parameter: k.name, Low: low, High: high, Base: baseTotal})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Swing() > out[j].Swing() })
	return out, nil
}
