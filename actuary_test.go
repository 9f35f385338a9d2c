package actuary

import (
	"context"
	"strings"
	"testing"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ask answers one request as a one-member batch, failing the test on
// a request error.
func ask(t *testing.T, s *Session, req Request) Result {
	t.Helper()
	r := s.Evaluate(context.Background(), []Request{req})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return r
}

func TestNewDefaults(t *testing.T) {
	s := newSession(t)
	if s.Tech() == nil {
		t.Fatal("nil tech database")
	}
	if s.Packaging().PackageAreaScale <= 0 {
		t.Fatal("packaging params not populated")
	}
	if s.Evaluator() == nil {
		t.Fatal("nil evaluator")
	}
}

func TestNewSessionRejectsBadParams(t *testing.T) {
	params := DefaultPackaging()
	params.PackageAreaScale = -1
	if _, err := NewSession(WithTech(DefaultTech()), WithPackaging(params)); err == nil {
		t.Error("bad params accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The README quick start, verified end to end.
	s := newSession(t)
	soc := Monolithic("big-soc", "5nm", 800, 2_000_000)
	mcm, err := PartitionEqual("big-mcm", "5nm", 800, 2, MCM, D2DFraction(0.10), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	socTC := ask(t, s, Request{Question: QuestionTotalCost, System: soc}).TotalCost
	mcmTC := ask(t, s, Request{Question: QuestionTotalCost, System: mcm}).TotalCost
	// At 2M units and 5nm/800mm² the paper's pay-back has happened.
	if mcmTC.Total() >= socTC.Total() {
		t.Errorf("MCM (%v) should beat SoC (%v) at 2M units", mcmTC.Total(), socTC.Total())
	}
	q := ask(t, s, Request{Question: QuestionCrossoverQuantity, Incumbent: soc, Challenger: mcm}).Quantity
	if q <= 0 || q >= 2_000_000 {
		t.Errorf("crossover = %v, want within (0, 2M)", q)
	}
}

func TestFacadeExploration(t *testing.T) {
	s := newSession(t)
	opt := ask(t, s, Request{Question: QuestionOptimalChipletCount, Node: "5nm",
		ModuleAreaMM2: 800, MaxK: 6, Scheme: MCM, D2D: D2DFraction(0.10), Quantity: 2_000_000})
	points, best := opt.Points, opt.Best
	if len(points) != 6 || points[best].Chiplets < 2 {
		t.Errorf("unexpected optimal sweep: %d points, best k=%d", len(points), points[best].Chiplets)
	}
	area := ask(t, s, Request{Question: QuestionAreaCrossover, Node: "5nm", K: 2,
		Scheme: MCM, D2D: D2DFraction(0.10), LoMM2: 100, HiMM2: 900}).AreaMM2
	if area <= 100 || area >= 900 {
		t.Errorf("area crossover = %v, want inside bracket", area)
	}
	mu, err := s.Evaluator().MarginalUtility("5nm", 800, 1, MCM, D2DFraction(0.10))
	if err != nil {
		t.Fatal(err)
	}
	if mu <= 0 {
		t.Errorf("first split should save cost, got %v", mu)
	}
}

func TestFacadeReuseSchemes(t *testing.T) {
	s := newSession(t)
	family, err := SCMS(SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1, 2, 4},
		Scheme: MCM, QuantityPerSystem: 500_000, Params: s.Packaging(),
	})
	if err != nil {
		t.Fatal(err)
	}
	costs, err := s.Portfolio(family, PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("portfolio = %d entries, want 3", len(costs))
	}
	if CollocationCount(6, 4) != 209 {
		t.Errorf("CollocationCount(6,4) = %v", CollocationCount(6, 4))
	}
}

func TestSystemConfigBuild(t *testing.T) {
	cfg := SystemConfig{
		Name: "epyc-like", Scheme: "MCM", Quantity: 1_000_000,
		Chiplets: []ChipletConfig{
			{Name: "ccd", Node: "7nm", ModuleAreaMM2: 67, D2DFraction: 0.10, Count: 8},
			{Name: "iod", Node: "12nm", ModuleAreaMM2: 374, D2DFraction: 0.10, Count: 1},
		},
	}
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.DieCount() != 9 {
		t.Errorf("dies = %d, want 9", s.DieCount())
	}
	tc := ask(t, newSession(t), Request{Question: QuestionTotalCost, System: s}).TotalCost
	if tc.Total() <= 0 {
		t.Error("degenerate total")
	}
}

func TestSystemConfigValidation(t *testing.T) {
	base := SystemConfig{
		Name: "x", Scheme: "MCM", Quantity: 1,
		Chiplets: []ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 100, Count: 2}},
	}
	ok := base
	if _, err := ok.Build(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Name = ""
	if _, err := bad.Build(); err == nil {
		t.Error("empty name accepted")
	}
	bad = base
	bad.Scheme = "3D"
	if _, err := bad.Build(); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = base
	bad.Flow = "sideways"
	if _, err := bad.Build(); err == nil {
		t.Error("unknown flow accepted")
	}
	bad = base
	bad.Chiplets = nil
	if _, err := bad.Build(); err == nil {
		t.Error("no chiplets accepted")
	}
	bad = base
	bad.Chiplets = []ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 100, Count: 0}}
	if _, err := bad.Build(); err == nil {
		t.Error("zero count accepted")
	}
	bad = base
	bad.Chiplets = []ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 100, D2DFraction: 1.2, Count: 1}}
	if _, err := bad.Build(); err == nil {
		t.Error("D2D fraction ≥1 accepted")
	}
}

func TestReadSystemConfig(t *testing.T) {
	js := `{
	  "name": "demo", "scheme": "2.5D", "flow": "chip-first", "quantity": 500000,
	  "chiplets": [{"name": "a", "node": "5nm", "module_area_mm2": 200, "d2d_fraction": 0.1, "count": 2}]
	}`
	cfg, err := ReadSystemConfig(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != TwoPointFiveD || s.Flow != ChipFirst {
		t.Errorf("scheme/flow = %v/%v", s.Scheme, s.Flow)
	}
	if _, err := ReadSystemConfig(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	if _, err := ReadSystemConfig(strings.NewReader(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadSystemConfig("/nonexistent/path.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPortfolioConfig(t *testing.T) {
	js := `{
	  "name": "family", "shared_package": "shared",
	  "systems": [
	    {"name": "a", "scheme": "MCM", "quantity": 1000,
	     "chiplets": [{"name": "X", "node": "7nm", "module_area_mm2": 200, "d2d_fraction": 0.1, "count": 1}]},
	    {"name": "b", "scheme": "MCM", "quantity": 1000,
	     "chiplets": [{"name": "X", "node": "7nm", "module_area_mm2": 200, "d2d_fraction": 0.1, "count": 4}]}
	  ]
	}`
	cfg, err := ReadPortfolioConfig(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	systems, err := cfg.Build(DefaultPackaging())
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 {
		t.Fatalf("systems = %d", len(systems))
	}
	for _, s := range systems {
		if s.Envelope == nil || s.Envelope.Name != "shared" {
			t.Errorf("%s: missing shared envelope", s.Name)
		}
	}
	// The envelope must be sized for the 4X member.
	want := systems[1].TotalDieArea() * DefaultPackaging().DieSpacingFactor
	if got := systems[0].Envelope.FootprintMM2; got != want {
		t.Errorf("envelope footprint = %v, want %v", got, want)
	}
	costs, err := newSession(t).Portfolio(systems, PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 2 {
		t.Errorf("portfolio evaluation incomplete")
	}
}

func TestPortfolioConfigErrors(t *testing.T) {
	if _, err := ReadPortfolioConfig(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	empty := PortfolioConfig{Name: "x"}
	if _, err := empty.Build(DefaultPackaging()); err == nil {
		t.Error("empty portfolio accepted")
	}
	socShared := PortfolioConfig{
		Name: "x", SharedPackage: "p",
		Systems: []SystemConfig{{
			Name: "s", Scheme: "SoC", Quantity: 1,
			Chiplets: []ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 100, Count: 1}},
		}},
	}
	if _, err := socShared.Build(DefaultPackaging()); err == nil {
		t.Error("SoC in a shared multi-chip package accepted")
	}
	if _, err := LoadPortfolioConfig("/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	badChild := PortfolioConfig{
		Name:    "x",
		Systems: []SystemConfig{{Name: "s", Scheme: "bogus", Quantity: 1}},
	}
	if _, err := badChild.Build(DefaultPackaging()); err == nil {
		t.Error("invalid child config accepted")
	}
}

func TestD2DHelpers(t *testing.T) {
	if got := D2DFraction(0.1).Area(90); got <= 0 {
		t.Errorf("fraction overhead = %v", got)
	}
	if got := D2DNone().Area(90); got != 0 {
		t.Errorf("none overhead = %v", got)
	}
	// Figure 1 presets are wired through.
	if MCMSerDes.GbpsPerLane != 112 || InFOFanout.GbpsPerLane != 56 || InterposerParallel.GbpsPerLane != 6.4 {
		t.Error("D2D PHY presets wrong")
	}
}

func TestScaledD2DFacade(t *testing.T) {
	s, err := CalibrateScaledD2D(D2DFullyConnected, 2, 400, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if s.WithCount(4).Area(200) <= s.WithCount(2).Area(200) {
		t.Error("fully-connected D2D should grow with count")
	}
	if D2DHub.String() != "hub" || D2DMesh.String() != "mesh" {
		t.Error("topology labels wrong")
	}
}

func TestSalvageFacade(t *testing.T) {
	s := newSession(t)
	mk := func(spec *SalvageSpec) System {
		return System{
			Name: "s", Scheme: MCM, Quantity: 1,
			Placements: []Placement{{
				Chiplet: Chiplet{
					Name: "x", Node: "7nm",
					Modules: []Module{{Name: "m", AreaMM2: 300}},
					D2D:     D2DFraction(0.10),
					Salvage: spec,
				},
				Count: 2,
			}},
		}
	}
	plain := ask(t, s, Request{Question: QuestionRE, System: mk(nil)}).RE
	harvested := ask(t, s, Request{Question: QuestionRE, System: mk(&SalvageSpec{Fraction: 0.5, Value: 0.8})}).RE
	if harvested.Total() >= plain.Total() {
		t.Error("harvesting should lower the total")
	}
}

func TestMonteCarloFacade(t *testing.T) {
	metric := func(s MonteCarloScenario) (float64, error) {
		return s.DB.MustNode("7nm").WaferCost, nil
	}
	res, err := MonteCarloRun(50, 1, DefaultMonteCarloSpace(0.1),
		DefaultTech(), DefaultPackaging(), metric)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultTech().MustNode("7nm").WaferCost
	if lo, hi := res.Quantile(0), res.Quantile(1); lo < 0.9*base || hi > 1.1*base {
		t.Errorf("samples [%v, %v] outside the ±10%% band", lo, hi)
	}
	// Distribution types are usable directly.
	var _ MonteCarloSpace = MonteCarloSpace{WaferCostFactor: Triangular{Lo: 0.9, Mode: 1, Hi: 1.1}}
	var _ MonteCarloResult = res
	_ = Uniform{Lo: 0, Hi: 1}
	_ = Normal{Mean: 1, Std: 0.1}
	_ = PointDist{V: 1}
}

func TestDensityFacade(t *testing.T) {
	scaled, err := newSession(t).Tech().ScaleArea(100, "7nm", "14nm")
	if err != nil {
		t.Fatal(err)
	}
	if scaled <= 100 {
		t.Errorf("area should grow toward mature nodes, got %v", scaled)
	}
}

func TestParseSchemeReexport(t *testing.T) {
	s, err := ParseScheme("2.5D")
	if err != nil || s != TwoPointFiveD {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
}
