package packaging

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chipletactuary/internal/memo/memotest"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func db(t *testing.T) *tech.Database {
	t.Helper()
	return tech.Default()
}

func twoDies(area, kgd float64) Assembly {
	return Assembly{DieAreasMM2: []float64{area, area}, KGDCosts: []float64{kgd, kgd}}
}

func TestSchemeStringAndParse(t *testing.T) {
	for _, s := range Schemes {
		parsed, err := ParseScheme(s.String())
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", s.String(), err)
		}
		if parsed != s {
			t.Errorf("round trip %v → %v", s, parsed)
		}
	}
	if _, err := ParseScheme("3D"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if got := Scheme(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown scheme String: %q", got)
	}
	if got := Flow(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown flow String: %q", got)
	}
	if ChipLast.String() != "chip-last" || ChipFirst.String() != "chip-first" {
		t.Error("flow labels wrong")
	}
}

func TestInterposerNodes(t *testing.T) {
	if InFO.InterposerNode() != "RDL" || TwoPointFiveD.InterposerNode() != "SI" {
		t.Error("interposer node mapping broken")
	}
	if SoC.HasInterposer() || MCM.HasInterposer() {
		t.Error("SoC/MCM must not have interposers")
	}
	if !InFO.HasInterposer() || !TwoPointFiveD.HasInterposer() {
		t.Error("InFO/2.5D must have interposers")
	}
	if SoC.InterposerNode() != "" {
		t.Error("SoC interposer node should be empty")
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidateRejectsBadValues(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.SubstrateCostPerLayerMM2 = 0 },
		func(p *Params) { p.PackageAreaScale = -1 },
		func(p *Params) { p.DieSpacingFactor = 0.5 },
		func(p *Params) { p.InterposerFill = 0.9 },
		func(p *Params) { p.SoCSubstrateLayers = 0 },
		func(p *Params) { p.MCMSubstrateLayers = -1 },
		func(p *Params) { p.InterposerSubstrateLayers = 0 },
		func(p *Params) { p.AssemblyBase = -1 },
		func(p *Params) { p.BondCostPerDie = -0.1 },
		func(p *Params) { p.FlipChipBondYield = 0 },
		func(p *Params) { p.MicroBumpBondYield = 1.1 },
		func(p *Params) { p.SubstrateAttachYield = -0.5 },
		func(p *Params) { p.FinalTestYield = 2 },
		func(p *Params) { p.MaxSubstrateMM2 = 0 },
		func(p *Params) { p.MaxInterposerMM2 = -5 },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestOrganicSoC(t *testing.T) {
	p := DefaultParams()
	a := Assembly{DieAreasMM2: []float64{800}, KGDCosts: []float64{600}}
	res, err := Package(p, db(t), SoC, ChipLast, a)
	if err != nil {
		t.Fatal(err)
	}
	// Geometry: single die, no spacing factor.
	if !units.ApproxEqual(res.FootprintMM2, 800, 1e-12) {
		t.Errorf("footprint = %v, want 800", res.FootprintMM2)
	}
	if !units.ApproxEqual(res.SubstrateAreaMM2, 3200, 1e-12) {
		t.Errorf("substrate = %v, want 3200", res.SubstrateAreaMM2)
	}
	// Raw package = substrate + assembly.
	wantSub := 3200 * 4 * p.SubstrateCostPerLayerMM2
	wantRaw := wantSub + p.AssemblyBase + p.AssemblyPerDie
	if !units.ApproxEqual(res.RawPackage, wantRaw, 1e-9) {
		t.Errorf("raw package = %v, want %v", res.RawPackage, wantRaw)
	}
	// Yield: one flip-chip attach × final test.
	wantY := p.FlipChipBondYield * p.FinalTestYield
	if !units.ApproxEqual(res.Yield, wantY, 1e-12) {
		t.Errorf("yield = %v, want %v", res.Yield, wantY)
	}
	// Defects and KGD waste follow 1/Y−1.
	loss := 1/wantY - 1
	if !units.ApproxEqual(res.WastedKGD, 600*loss, 1e-9) {
		t.Errorf("wasted KGD = %v, want %v", res.WastedKGD, 600*loss)
	}
	if !units.ApproxEqual(res.Total(), res.RawPackage+res.PackageDefects+res.WastedKGD, 1e-12) {
		t.Error("Total() must sum the three components")
	}
}

func TestSoCRejectsMultipleDies(t *testing.T) {
	_, err := Package(DefaultParams(), db(t), SoC, ChipLast, twoDies(200, 100))
	if err == nil {
		t.Fatal("SoC with 2 dies accepted")
	}
}

func TestMCMSubstrateGrowthFactor(t *testing.T) {
	p := DefaultParams()
	a := twoDies(400, 300)
	res, err := Package(p, db(t), MCM, ChipLast, a)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint includes the spacing factor for n>1.
	if !units.ApproxEqual(res.FootprintMM2, 800*1.10, 1e-12) {
		t.Errorf("footprint = %v, want %v", res.FootprintMM2, 800*1.10)
	}
	// MCM must cost more than a hypothetical SoC-layer substrate of
	// the same area: the layer count is the growth factor.
	if res.RawSubstrate <= res.SubstrateAreaMM2*float64(p.SoCSubstrateLayers)*p.SubstrateCostPerLayerMM2 {
		t.Error("MCM substrate should carry a growth factor over SoC layers")
	}
	// Two attaches lower the yield below the SoC case.
	soc, err := Package(p, db(t), SoC, ChipLast, Assembly{DieAreasMM2: []float64{800}, KGDCosts: []float64{600}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield >= soc.Yield {
		t.Errorf("MCM yield %v should be below SoC yield %v", res.Yield, soc.Yield)
	}
}

func TestInterposedChipLastEquationFour(t *testing.T) {
	p := DefaultParams()
	d := db(t)
	a := twoDies(222, 150)
	res, err := Package(p, d, TwoPointFiveD, ChipLast, a)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute Eq. (4) by hand.
	si := d.MustNode("SI")
	intArea := 444.0 * p.InterposerFill
	perInt, err := p.Wafer.CostPerRawDie(p.Estimator, si.WaferCost, intArea)
	if err != nil {
		t.Fatal(err)
	}
	rawInt := perInt + si.BumpCostPerMM2*intArea
	subArea := intArea * p.PackageAreaScale
	rawSub := subArea * float64(p.InterposerSubstrateLayers) * p.SubstrateCostPerLayerMM2
	assembly := p.AssemblyBase + 2*p.AssemblyPerDie + 2*p.BondCostPerDie
	y1 := si.Yield(intArea)
	y2n := p.MicroBumpBondYield * p.MicroBumpBondYield
	y3 := p.SubstrateAttachYield * p.FinalTestYield

	wantDefects := rawInt*(1/(y1*y2n*y3)-1) + rawSub*(1/y3-1) + assembly*(1/(y2n*y3)-1)
	if !units.ApproxEqual(res.PackageDefects, wantDefects, 1e-9) {
		t.Errorf("package defects = %v, want %v", res.PackageDefects, wantDefects)
	}
	wantKGD := 300 * (1/(y2n*y3) - 1)
	if !units.ApproxEqual(res.WastedKGD, wantKGD, 1e-9) {
		t.Errorf("wasted KGD = %v, want %v", res.WastedKGD, wantKGD)
	}
	if !units.ApproxEqual(res.RawPackage, rawInt+rawSub+assembly, 1e-9) {
		t.Errorf("raw package = %v, want %v", res.RawPackage, rawInt+rawSub+assembly)
	}
}

func TestChipFirstWastesMoreKGD(t *testing.T) {
	// Eq. (5): chip-first exposes dies to interposer-fab losses, so
	// it must waste strictly more KGD value than chip-last.
	p := DefaultParams()
	a := twoDies(300, 400)
	for _, s := range []Scheme{InFO, TwoPointFiveD} {
		last, err := Package(p, db(t), s, ChipLast, a)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Package(p, db(t), s, ChipFirst, a)
		if err != nil {
			t.Fatal(err)
		}
		if first.WastedKGD <= last.WastedKGD {
			t.Errorf("%v: chip-first KGD waste %v should exceed chip-last %v",
				s, first.WastedKGD, last.WastedKGD)
		}
		if first.Yield >= last.Yield {
			t.Errorf("%v: chip-first yield %v should be below chip-last %v",
				s, first.Yield, last.Yield)
		}
	}
}

func TestChipLastPreferredForExpensiveDies(t *testing.T) {
	// The paper's conclusion: "chip-last packaging is the priority
	// selection for multi-chip systems" because KGD waste dominates
	// when dies are expensive.
	p := DefaultParams()
	a := twoDies(400, 800) // expensive 5nm-class dies
	last, err := Package(p, db(t), TwoPointFiveD, ChipLast, a)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Package(p, db(t), TwoPointFiveD, ChipFirst, a)
	if err != nil {
		t.Fatal(err)
	}
	if last.Total() >= first.Total() {
		t.Errorf("chip-last total %v should undercut chip-first %v for expensive dies",
			last.Total(), first.Total())
	}
}

func TestSizeLimits(t *testing.T) {
	p := DefaultParams()
	// Interposer limit: 3 dies of 800 mm² → 2640 mm² interposer > 2500.
	big := Assembly{DieAreasMM2: []float64{800, 800, 800}, KGDCosts: []float64{1, 1, 1}}
	if _, err := Package(p, db(t), TwoPointFiveD, ChipLast, big); err == nil {
		t.Error("oversized interposer accepted")
	}
	// Substrate limit for MCM: 2000 mm² of die × 1.1 × 4 = 8800 > 6400.
	wide := Assembly{DieAreasMM2: []float64{1000, 1000}, KGDCosts: []float64{1, 1}}
	if _, err := Package(p, db(t), MCM, ChipLast, wide); err == nil {
		t.Error("oversized substrate accepted")
	}
}

func TestAssemblyValidation(t *testing.T) {
	p := DefaultParams()
	cases := []Assembly{
		{},
		{DieAreasMM2: []float64{100}, KGDCosts: []float64{1, 2}},
		{DieAreasMM2: []float64{-5}, KGDCosts: []float64{1}},
		{DieAreasMM2: []float64{100}, KGDCosts: []float64{-1}},
	}
	for i, a := range cases {
		if _, err := Package(p, db(t), MCM, ChipLast, a); err == nil {
			t.Errorf("case %d: invalid assembly accepted", i)
		}
	}
	bad := DefaultParams()
	bad.PackageAreaScale = 0
	if _, err := Package(bad, db(t), MCM, ChipLast, twoDies(100, 1)); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestPropertyPackagingCostsNonNegative(t *testing.T) {
	p := DefaultParams()
	d := db(t)
	f := func(area, kgd float64, nRaw uint8, schemeRaw uint8) bool {
		n := 1 + int(nRaw%4)
		area = 50 + math.Mod(math.Abs(area), 400)
		kgd = math.Mod(math.Abs(kgd), 2000)
		s := Schemes[int(schemeRaw)%len(Schemes)]
		if s == SoC {
			n = 1
		}
		areas := make([]float64, n)
		costs := make([]float64, n)
		for i := range areas {
			areas[i] = area
			costs[i] = kgd
		}
		res, err := Package(p, d, s, ChipLast, Assembly{DieAreasMM2: areas, KGDCosts: costs})
		if err != nil {
			// Size-limit rejections are fine.
			return true
		}
		return res.RawPackage > 0 && res.PackageDefects >= 0 && res.WastedKGD >= 0 &&
			res.Yield > 0 && res.Yield <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMoreDiesLowerYield(t *testing.T) {
	p := DefaultParams()
	d := db(t)
	f := func(area float64, nRaw uint8) bool {
		area = 50 + math.Mod(math.Abs(area), 150)
		n := 1 + int(nRaw%3)
		mk := func(k int) Assembly {
			areas := make([]float64, k)
			costs := make([]float64, k)
			for i := range areas {
				areas[i] = area
				costs[i] = 100
			}
			return Assembly{DieAreasMM2: areas, KGDCosts: costs}
		}
		small, err1 := Package(p, d, MCM, ChipLast, mk(n))
		large, err2 := Package(p, d, MCM, ChipLast, mk(n+1))
		if err1 != nil || err2 != nil {
			return true
		}
		return large.Yield < small.Yield
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNREFactorsOrdering(t *testing.T) {
	// Package design complexity must rise with integration
	// sophistication: SoC < MCM < InFO < 2.5D in both factors.
	prevK, prevF := -1.0, -1.0
	for _, s := range Schemes {
		k, f := s.NREFactors()
		if k <= prevK || f <= prevF {
			t.Errorf("%v: NRE factors (%v,%v) must exceed previous (%v,%v)", s, k, f, prevK, prevF)
		}
		prevK, prevF = k, f
	}
	if k, f := Scheme(99).NREFactors(); k != 0 || f != 0 {
		t.Error("unknown scheme should have zero NRE factors")
	}
}

func TestPartialTablePointerFree(t *testing.T) {
	memotest.PointerFree[PartialKey, PartialOutcome](t)
}

// TestCachedPartialReplaysFailure checks that a cached failure, stored
// as a flag, replays PartialFor's error and zero partial exactly.
func TestCachedPartialReplaysFailure(t *testing.T) {
	p := DefaultParams()
	c := NewPartialCache(64)
	k := PartialKey{Scheme: TwoPointFiveD, Flow: ChipLast, Dies: 2, TotalDieAreaMM2: 5000}
	wantPt, wantErr := PartialFor(p, db(t), k)
	if wantErr == nil {
		t.Fatal("an oversized interposer priced")
	}
	for pass := 0; pass < 3; pass++ {
		pt, err := CachedPartial(c, p, db(t), k)
		if pt != wantPt || fmt.Sprint(err) != wantErr.Error() {
			t.Fatalf("pass %d: %+v, %v; want %+v, %v", pass, pt, err, wantPt, wantErr)
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss, 1 entry", st)
	}
}
