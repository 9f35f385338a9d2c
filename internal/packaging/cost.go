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
// produce bit-identical Results once WastedKGD is applied, so the key,
// packed, is exactly the memoization key for the sweep hot path: within
// an innermost-axis run, adjacent candidates share (scheme, area,
// count).
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

// partialKey is a PartialKey as the partial table holds it: the
// scheme, flow and die count packed into one word, scheme<<32 |
// flow<<16 | dies, then the three areas. pack refuses a key whose
// fields do not fit that word, so two different PartialKeys never
// share a partialKey.
type partialKey struct {
	shape                 uint64
	totalDieAreaMM2       float64
	footprintOverrideMM2  float64
	interposerOverrideMM2 float64
}

// pack returns k's table key, or false when k's scheme does not fit in
// 32 bits or its flow or die count in 16; CachedPartial prices such a
// key without the table. The schemes and flows that price are the
// named constants, and a validated system mounts at most 4096 dies, so
// the keys that skip the table are ones no real package has.
func (k *PartialKey) pack() (partialKey, bool) {
	if uint64(k.Scheme) > math.MaxUint32 || uint64(k.Flow) > math.MaxUint16 || uint64(k.Dies) > math.MaxUint16 {
		return partialKey{}, false
	}
	return partialKey{
		shape:                 uint64(k.Scheme)<<32 | uint64(k.Flow)<<16 | uint64(k.Dies),
		totalDieAreaMM2:       k.TotalDieAreaMM2,
		footprintOverrideMM2:  k.FootprintOverrideMM2,
		interposerOverrideMM2: k.InterposerOverrideMM2,
	}, true
}

// hash mixes the key for the shard-selection function of a memo
// cache: FNV-1a's multiply folded over whole words (the packed scheme,
// flow and die-count word, then the three area words), as the
// evaluator's shape table hashes its keys. The memo table runs every
// hash through its own finalizer before picking a shard and an index
// position, so a byte-at-a-time fold would buy nothing for its 32
// multiplies.
func (k partialKey) hash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a's 64-bit offset basis
	h = (h ^ k.shape) * memo.HashPrime
	h = (h ^ math.Float64bits(k.totalDieAreaMM2)) * memo.HashPrime
	h = (h ^ math.Float64bits(k.footprintOverrideMM2)) * memo.HashPrime
	h = (h ^ math.Float64bits(k.interposerOverrideMM2)) * memo.HashPrime
	return h
}

// PartialOutcome is a memoized outcome of PartialFor, as the partial
// table and the evaluator's shape table hold it: Failed when PartialFor
// returned an error, and otherwise the partial, packed into 88 bytes.
// Errors are fully determined by the key (scheme, flow, geometry
// feasibility), so CachedPartial replays a failure by calling
// PartialFor again instead of storing the error: the outcome holds no
// pointer, and the collector never scans a table of them. The packed
// partial keeps the Result's nine other floats and the loss factor,
// and the scheme and flow in a byte each, as PartialFor wrote them: a
// partial that prices has a scheme of 0–3 and a flow of 0–1 (0 for
// the organic schemes, whatever the key's flow). It drops WastedKGD,
// which a partial leaves zero.
type PartialOutcome struct {
	rawPackage, packageDefects, yield                        float64
	footprintMM2, interposerAreaMM2, substrateAreaMM2        float64
	rawInterposer, rawSubstrate, assemblyCost, kgdLossFactor float64
	scheme, flow                                             uint8
	Failed                                                   bool
}

// Outcome packs the outcome of a PartialFor call that wrote *pt and
// returned err.
func Outcome(pt *Partial, err error) PartialOutcome {
	if err != nil {
		return PartialOutcome{Failed: true}
	}
	r := &pt.Result
	return PartialOutcome{
		rawPackage:        r.RawPackage,
		packageDefects:    r.PackageDefects,
		yield:             r.Yield,
		footprintMM2:      r.FootprintMM2,
		interposerAreaMM2: r.InterposerAreaMM2,
		substrateAreaMM2:  r.SubstrateAreaMM2,
		rawInterposer:     r.RawInterposer,
		rawSubstrate:      r.RawSubstrate,
		assemblyCost:      r.AssemblyCost,
		kgdLossFactor:     pt.KGDLossFactor,
		scheme:            uint8(r.Scheme),
		flow:              uint8(r.Flow),
	}
}

// Unpack writes into *pt the partial a successful outcome packed, bit
// for bit as PartialFor wrote it. A failed outcome holds no partial.
func (o *PartialOutcome) Unpack(pt *Partial) {
	*pt = Partial{
		Result: Result{
			Scheme:            Scheme(o.scheme),
			Flow:              Flow(o.flow),
			RawPackage:        o.rawPackage,
			PackageDefects:    o.packageDefects,
			Yield:             o.yield,
			FootprintMM2:      o.footprintMM2,
			InterposerAreaMM2: o.interposerAreaMM2,
			SubstrateAreaMM2:  o.substrateAreaMM2,
			RawInterposer:     o.rawInterposer,
			RawSubstrate:      o.rawSubstrate,
			AssemblyCost:      o.assemblyCost,
		},
		KGDLossFactor: o.kgdLossFactor,
	}
}

// PartialCache memoizes packaging partials. One instance is shared by
// the cost and NRE engines of an evaluator (and by its uniform-shape
// table, which prices a shape's package here once), so that a sweep
// point's package is priced once however many engines need it. An
// entry is 120 bytes: a 32-byte partialKey and a PartialOutcome.
type PartialCache = memo.Cache[partialKey, PartialOutcome]

// NewPartialCache builds a bounded partial cache; max < 1 returns the
// nil (disabled) cache, on which CachedPartial degrades to PartialFor.
func NewPartialCache(max int) *PartialCache {
	return memo.New[partialKey, PartialOutcome](max, partialKey.hash)
}

// CachedPartial is PartialFor through a (possibly nil) cache: it
// writes the partial for k into *pt, which the caller owns, and on an
// error leaves *pt the zero Partial, as PartialFor returns it. Params
// (160 bytes) and the partial (104 bytes) pass by pointer. A key that
// does not pack skips the cache.
func CachedPartial(c *PartialCache, p *Params, db *tech.Database, k PartialKey, pt *Partial) error {
	pk, ok := k.pack()
	if !ok {
		return p.partial(db, k, pt)
	}
	var out PartialOutcome
	if c.Get(pk, &out) {
		if out.Failed {
			return p.partial(db, k, pt)
		}
		out.Unpack(pt)
		return nil
	}
	err := p.partial(db, k, pt)
	c.Put(pk, Outcome(pt, err))
	return err
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

// Apply writes into *r the Result of an assembly whose dies cost
// totalKGD in all: the partial's Result with WastedKGD filled in,
// reproducing Package's arithmetic bit for bit.
func (pt *Partial) Apply(totalKGD float64, r *Result) {
	*r = pt.Result
	r.WastedKGD = totalKGD * pt.KGDLossFactor
}

// PartialFor computes the KGD-independent packaging partial for a
// key. It assumes validated Params and a well-formed assembly shape
// (the engines guarantee both); errors still cover scheme/flow/
// geometry feasibility and depend only on the key, so cached error
// outcomes replay exactly.
func PartialFor(p Params, db *tech.Database, k PartialKey) (Partial, error) {
	var pt Partial
	err := p.partial(db, k, &pt)
	return pt, err
}

// partial is PartialFor writing into *pt, which it leaves the zero
// Partial on an error.
func (p *Params) partial(db *tech.Database, k PartialKey, pt *Partial) error {
	var err error
	switch k.Scheme {
	case SoC, MCM:
		err = p.organicPartial(k, pt)
	case InFO, TwoPointFiveD:
		var id int
		if id, err = db.NodeID(k.Scheme.InterposerNode()); err == nil {
			err = p.interposedPartial(k, db.NodeByID(id), pt)
		}
	default:
		err = fmt.Errorf("packaging: unknown scheme %v", k.Scheme)
	}
	if err != nil {
		*pt = Partial{}
	}
	return err
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
	var pt Partial
	if err := p.partial(db, PartialKey{
		Scheme:                s,
		Flow:                  f,
		Dies:                  len(a.DieAreasMM2),
		TotalDieAreaMM2:       a.TotalDieArea(),
		FootprintOverrideMM2:  a.FootprintOverrideMM2,
		InterposerOverrideMM2: a.InterposerOverrideMM2,
	}, &pt); err != nil {
		return Result{}, err
	}
	var r Result
	pt.Apply(a.TotalKGDCost(), &r)
	return r, nil
}

// organicPartial prices a die-on-substrate package (SoC or MCM). Dies
// attach directly to the substrate in one bonding stage; the MCM
// substrate carries extra routing layers (the paper's substrate
// growth factor). It writes *pt only when it returns no error.
func (p *Params) organicPartial(k PartialKey, pt *Partial) error {
	n := k.Dies
	s := k.Scheme
	footprint := k.TotalDieAreaMM2
	if n > 1 {
		footprint *= p.DieSpacingFactor
	}
	if k.FootprintOverrideMM2 > 0 {
		if k.FootprintOverrideMM2 < footprint {
			return fmt.Errorf("packaging: reused footprint %.0f mm² cannot hold %.0f mm² of dies",
				k.FootprintOverrideMM2, footprint)
		}
		footprint = k.FootprintOverrideMM2
	}
	substrate := footprint * p.PackageAreaScale
	if substrate > p.MaxSubstrateMM2 {
		return fmt.Errorf("packaging: %v substrate %.0f mm² exceeds maximum %.0f mm²",
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
	*pt = Partial{
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
	}
	return nil
}

// interposedPartial prices an InFO or 2.5D package per Eq. (4)/(5).
// In the chip-last flow the interposer is fabricated and screened
// first (losses y1 affect only interposer spend), dies bond at y2
// each, and the assembly attaches to the substrate at y3. In the
// chip-first flow the RDL is built after the dies are molded, so
// interposer defects destroy dies too. On an error it may leave *pt
// partly written; partial zeroes it.
func (p *Params) interposedPartial(k PartialKey, node *tech.Node, pt *Partial) error {
	n := k.Dies
	s, f := k.Scheme, k.Flow
	interposer := k.TotalDieAreaMM2 * p.InterposerFill
	if k.InterposerOverrideMM2 > 0 {
		if k.InterposerOverrideMM2 < interposer {
			return fmt.Errorf("packaging: reused interposer %.0f mm² cannot hold %.0f mm² of dies",
				k.InterposerOverrideMM2, interposer)
		}
		interposer = k.InterposerOverrideMM2
	}
	// Same rule as Params.InterposerFits, applied to the (possibly
	// overridden) interposer size.
	if interposer > p.MaxInterposerMM2 {
		return fmt.Errorf("packaging: %v interposer %.0f mm² exceeds maximum %.0f mm²",
			s, interposer, p.MaxInterposerMM2)
	}
	substrate := interposer * p.PackageAreaScale
	if substrate > p.MaxSubstrateMM2 {
		return fmt.Errorf("packaging: %v substrate %.0f mm² exceeds maximum %.0f mm²",
			s, substrate, p.MaxSubstrateMM2)
	}

	perInt, err := p.Wafer.CostPerRawDie(p.Estimator, node.WaferCost, interposer)
	if err != nil {
		return fmt.Errorf("packaging: interposer: %w", err)
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

	*pt = Partial{Result: Result{
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
		return fmt.Errorf("packaging: unknown flow %v", f)
	}
	return nil
}
