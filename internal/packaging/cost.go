package packaging

import (
	"fmt"
	"math"

	"chipletactuary/internal/memo"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/yield"
)

// Assembly describes the dies entering a package: their areas and the
// cost of each known-good die (raw die cost grossed up by die yield,
// plus bumping and wafer sort). KGD costs are computed by the cost
// engine; packaging only needs them to price the dies it destroys.
type Assembly struct {
	DieAreasMM2 []float64
	KGDCosts    []float64

	// FootprintOverrideMM2, when positive, replaces the die-derived
	// mounting footprint — used when a smaller system is mounted in a
	// reused package envelope sized for a larger sibling (§5.1). It
	// must cover the dies actually mounted.
	FootprintOverrideMM2 float64
	// InterposerOverrideMM2 likewise fixes the interposer size for
	// interposer-based schemes.
	InterposerOverrideMM2 float64
}

// TotalDieArea returns the summed die area.
func (a Assembly) TotalDieArea() float64 {
	var sum float64
	for _, s := range a.DieAreasMM2 {
		sum += s
	}
	return sum
}

// TotalKGDCost returns the summed known-good-die cost.
func (a Assembly) TotalKGDCost() float64 {
	var sum float64
	for _, c := range a.KGDCosts {
		sum += c
	}
	return sum
}

func (a Assembly) validate() error {
	if len(a.DieAreasMM2) == 0 {
		return fmt.Errorf("packaging: assembly has no dies")
	}
	if len(a.DieAreasMM2) != len(a.KGDCosts) {
		return fmt.Errorf("packaging: %d die areas but %d KGD costs",
			len(a.DieAreasMM2), len(a.KGDCosts))
	}
	for i, s := range a.DieAreasMM2 {
		if err := CheckDie(i, s, a.KGDCosts[i]); err != nil {
			return err
		}
	}
	return nil
}

// CheckDie returns the error Package reports for die i of an assembly
// when its area is not positive or its KGD cost is negative, and nil
// otherwise. Callers that price packages from a cached partial run it
// per die, in die order, so their assembly errors match Package's.
func CheckDie(i int, areaMM2, kgdCost float64) error {
	if areaMM2 <= 0 {
		return fmt.Errorf("packaging: die %d has non-positive area %v", i, areaMM2)
	}
	if kgdCost < 0 {
		return fmt.Errorf("packaging: die %d has negative KGD cost %v", i, kgdCost)
	}
	return nil
}

// CheckDieCount returns the error Package reports when scheme s
// cannot mount n dies (an SoC package holds exactly one), and nil
// otherwise.
func CheckDieCount(s Scheme, n int) error {
	if s == SoC && n != 1 {
		return fmt.Errorf("packaging: SoC packages exactly one die, got %d", n)
	}
	return nil
}

// Result is the packaging-related RE cost breakdown: the three
// packaging components of the paper's five-part split (§3.2), plus the
// geometry and yields behind them.
type Result struct {
	Scheme Scheme
	Flow   Flow

	// RawPackage is the cost of one defect-free package's materials
	// and assembly: raw interposer (if any) + raw substrate +
	// assembly operations.
	RawPackage float64
	// PackageDefects is the extra packaging spend caused by yield
	// loss across the packaging flow.
	PackageDefects float64
	// WastedKGD is the value of known-good dies destroyed by
	// packaging defects — the component the paper calls out as
	// "a significant proportion of the total cost" for advanced
	// packaging.
	WastedKGD float64

	// Yield is the end-to-end packaging yield experienced by a die
	// that enters assembly (excludes interposer fab yield, which is
	// screened before assembly in the chip-last flow).
	Yield float64

	// Geometry.
	FootprintMM2      float64
	InterposerAreaMM2 float64
	SubstrateAreaMM2  float64

	// Informational split of RawPackage.
	RawInterposer float64
	RawSubstrate  float64
	AssemblyCost  float64
}

// Total returns the full packaging-related cost: raw package, package
// defects and wasted KGDs (the paper's "cost of packaging" in the
// Figure 5 note).
func (r Result) Total() float64 {
	return r.RawPackage + r.PackageDefects + r.WastedKGD
}

// PartialKey names the inputs that fully determine a package's
// geometry, yields, and per-package costs — everything in Result
// except WastedKGD, which additionally scales with the total KGD cost
// of the dies entering assembly. Two assemblies with equal keys
// produce bit-identical Results once WastedKGD is applied, so the key
// is exactly the memoization key for the sweep hot path: within an
// innermost-axis run, adjacent candidates share (scheme, area, count).
type PartialKey struct {
	Scheme Scheme
	Flow   Flow
	Dies   int
	// TotalDieAreaMM2 is Assembly.TotalDieArea() — summed in die
	// order, so the key preserves bit-identity of the downstream
	// float math.
	TotalDieAreaMM2       float64
	FootprintOverrideMM2  float64
	InterposerOverrideMM2 float64
}

// Hash mixes the key for the shard-selection function of a memo
// cache (FNV-1a over the scalar fields).
func (k PartialKey) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(k.Scheme)<<32 | uint64(k.Flow)<<16 | uint64(uint32(k.Dies)))
	mix(math.Float64bits(k.TotalDieAreaMM2))
	mix(math.Float64bits(k.FootprintOverrideMM2))
	mix(math.Float64bits(k.InterposerOverrideMM2))
	return h
}

// PartialOutcome is the memoized outcome of PartialFor: the partial,
// or Failed when PartialFor returned an error. Errors are fully
// determined by the key (scheme, flow, geometry feasibility), so
// CachedPartial replays a failure by calling PartialFor again instead
// of storing the error: the table's entries hold no pointer, and the
// collector never scans them.
type PartialOutcome struct {
	Partial Partial
	Failed  bool
}

// PartialCache memoizes packaging partials. One instance is shared by
// the cost and NRE engines of an evaluator (and by its uniform-shape
// table, which prices a shape's package here once), so that a sweep
// point's package is priced once however many engines need it.
type PartialCache = memo.Cache[PartialKey, PartialOutcome]

// NewPartialCache builds a bounded partial cache; max < 1 returns the
// nil (disabled) cache, on which CachedPartial degrades to PartialFor.
func NewPartialCache(max int) *PartialCache {
	return memo.New[PartialKey, PartialOutcome](max, PartialKey.Hash)
}

// CachedPartial is PartialFor through a (possibly nil) cache.
func CachedPartial(c *PartialCache, p Params, db *tech.Database, k PartialKey) (Partial, error) {
	if out, ok := c.Get(k); ok {
		if out.Failed {
			return PartialFor(p, db, k)
		}
		return out.Partial, nil
	}
	pt, err := PartialFor(p, db, k)
	c.Put(k, PartialOutcome{Partial: pt, Failed: err != nil})
	return pt, err
}

// Partial is the KGD-independent part of a packaging evaluation: the
// full Result minus WastedKGD, plus the loss factor WastedKGD scales
// by. Apply completes it for a particular assembly's KGD total.
type Partial struct {
	// Result has every field final except WastedKGD, which is zero.
	Result Result
	// KGDLossFactor is the multiplier on the assembly's total KGD
	// cost: WastedKGD = TotalKGDCost() * KGDLossFactor.
	KGDLossFactor float64
}

// Apply fills in WastedKGD for an assembly whose dies cost totalKGD,
// reproducing Package's arithmetic bit for bit.
func (pt Partial) Apply(totalKGD float64) Result {
	r := pt.Result
	r.WastedKGD = totalKGD * pt.KGDLossFactor
	return r
}

// PartialFor computes the KGD-independent packaging partial for a
// key. It assumes validated Params and a well-formed assembly shape
// (the engines guarantee both); errors still cover scheme/flow/
// geometry feasibility and depend only on the key, so cached error
// outcomes replay exactly.
func PartialFor(p Params, db *tech.Database, k PartialKey) (Partial, error) {
	switch k.Scheme {
	case SoC, MCM:
		return p.organicPartial(k)
	case InFO, TwoPointFiveD:
		node, err := db.Node(k.Scheme.InterposerNode())
		if err != nil {
			return Partial{}, err
		}
		return p.interposedPartial(k, node)
	default:
		return Partial{}, fmt.Errorf("packaging: unknown scheme %v", k.Scheme)
	}
}

// Package computes the packaging cost of assembling the given dies
// under the scheme and flow. The interposer tech node is resolved from
// db for interposer-based schemes.
func Package(p Params, db *tech.Database, s Scheme, f Flow, a Assembly) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := a.validate(); err != nil {
		return Result{}, err
	}
	if err := CheckDieCount(s, len(a.DieAreasMM2)); err != nil {
		return Result{}, err
	}
	pt, err := PartialFor(p, db, PartialKey{
		Scheme:                s,
		Flow:                  f,
		Dies:                  len(a.DieAreasMM2),
		TotalDieAreaMM2:       a.TotalDieArea(),
		FootprintOverrideMM2:  a.FootprintOverrideMM2,
		InterposerOverrideMM2: a.InterposerOverrideMM2,
	})
	if err != nil {
		return Result{}, err
	}
	return pt.Apply(a.TotalKGDCost()), nil
}

// organicPartial prices a die-on-substrate package (SoC or MCM). Dies
// attach directly to the substrate in one bonding stage; the MCM
// substrate carries extra routing layers (the paper's substrate
// growth factor).
func (p Params) organicPartial(k PartialKey) (Partial, error) {
	n := k.Dies
	s := k.Scheme
	footprint := k.TotalDieAreaMM2
	if n > 1 {
		footprint *= p.DieSpacingFactor
	}
	if k.FootprintOverrideMM2 > 0 {
		if k.FootprintOverrideMM2 < footprint {
			return Partial{}, fmt.Errorf("packaging: reused footprint %.0f mm² cannot hold %.0f mm² of dies",
				k.FootprintOverrideMM2, footprint)
		}
		footprint = k.FootprintOverrideMM2
	}
	substrate := footprint * p.PackageAreaScale
	if substrate > p.MaxSubstrateMM2 {
		return Partial{}, fmt.Errorf("packaging: %v substrate %.0f mm² exceeds maximum %.0f mm²",
			s, substrate, p.MaxSubstrateMM2)
	}
	layers := p.SoCSubstrateLayers
	if s == MCM {
		layers = p.MCMSubstrateLayers
	}
	rawSub := substrate * float64(layers) * p.SubstrateCostPerLayerMM2
	assembly := p.AssemblyBase + float64(n)*p.AssemblyPerDie
	raw := rawSub + assembly

	y := yield.Bonding(p.FlipChipBondYield, n) * p.FinalTestYield
	loss := 1/y - 1
	return Partial{
		Result: Result{
			Scheme:           s,
			RawPackage:       raw,
			PackageDefects:   raw * loss,
			Yield:            y,
			FootprintMM2:     footprint,
			SubstrateAreaMM2: substrate,
			RawSubstrate:     rawSub,
			AssemblyCost:     assembly,
		},
		KGDLossFactor: loss,
	}, nil
}

// interposedPartial prices an InFO or 2.5D package per Eq. (4)/(5).
// In the chip-last flow the interposer is fabricated and screened
// first (losses y1 affect only interposer spend), dies bond at y2
// each, and the assembly attaches to the substrate at y3. In the
// chip-first flow the RDL is built after the dies are molded, so
// interposer defects destroy dies too.
func (p Params) interposedPartial(k PartialKey, node tech.Node) (Partial, error) {
	n := k.Dies
	s, f := k.Scheme, k.Flow
	interposer := k.TotalDieAreaMM2 * p.InterposerFill
	if k.InterposerOverrideMM2 > 0 {
		if k.InterposerOverrideMM2 < interposer {
			return Partial{}, fmt.Errorf("packaging: reused interposer %.0f mm² cannot hold %.0f mm² of dies",
				k.InterposerOverrideMM2, interposer)
		}
		interposer = k.InterposerOverrideMM2
	}
	// Same rule as Params.InterposerFits, applied to the (possibly
	// overridden) interposer size.
	if interposer > p.MaxInterposerMM2 {
		return Partial{}, fmt.Errorf("packaging: %v interposer %.0f mm² exceeds maximum %.0f mm²",
			s, interposer, p.MaxInterposerMM2)
	}
	substrate := interposer * p.PackageAreaScale
	if substrate > p.MaxSubstrateMM2 {
		return Partial{}, fmt.Errorf("packaging: %v substrate %.0f mm² exceeds maximum %.0f mm²",
			s, substrate, p.MaxSubstrateMM2)
	}

	perInt, err := p.Wafer.CostPerRawDie(p.Estimator, node.WaferCost, interposer)
	if err != nil {
		return Partial{}, fmt.Errorf("packaging: interposer: %w", err)
	}
	// "The bump cost ... counted twice on the chip side and the
	// substrate side" (§3.2): the interposer carries its own bumping
	// cost here; the dies' bump cost is inside their KGD cost.
	rawInt := perInt + node.BumpCostPerMM2*interposer
	rawSub := substrate * float64(p.InterposerSubstrateLayers) * p.SubstrateCostPerLayerMM2
	assembly := p.AssemblyBase + float64(n)*p.AssemblyPerDie

	y1 := node.Yield(interposer)
	y2n := yield.Bonding(p.MicroBumpBondYield, n)
	y3 := p.SubstrateAttachYield * p.FinalTestYield

	pt := Partial{Result: Result{
		Scheme:            s,
		Flow:              f,
		FootprintMM2:      interposer,
		InterposerAreaMM2: interposer,
		SubstrateAreaMM2:  substrate,
		RawInterposer:     rawInt,
		RawSubstrate:      rawSub,
	}}
	res := &pt.Result

	switch f {
	case ChipLast:
		bond := float64(n) * p.BondCostPerDie
		res.AssemblyCost = assembly + bond
		res.RawPackage = rawInt + rawSub + res.AssemblyCost
		res.Yield = y2n * y3
		res.PackageDefects = rawInt*(1/(y1*y2n*y3)-1) +
			rawSub*(1/y3-1) +
			res.AssemblyCost*(1/(y2n*y3)-1)
		pt.KGDLossFactor = 1/(y2n*y3) - 1
	case ChipFirst:
		res.AssemblyCost = assembly
		res.RawPackage = rawInt + rawSub + res.AssemblyCost
		res.Yield = y1 * y2n * y3
		res.PackageDefects = (rawInt+res.AssemblyCost)*(1/(y1*y2n*y3)-1) +
			rawSub*(1/y3-1)
		pt.KGDLossFactor = 1/(y1*y2n*y3) - 1
	default:
		return Partial{}, fmt.Errorf("packaging: unknown flow %v", f)
	}
	return pt, nil
}
