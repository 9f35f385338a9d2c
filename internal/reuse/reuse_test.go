package reuse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func TestChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {9, 4, 126},
		{7, 2, 21}, {8, 3, 56}, {6, 1, 6},
		{5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := Choose(c.n, c.k); got != c.want {
			t.Errorf("Choose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestPropertyPascalIdentity(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw%20)
		k := int(kRaw) % (n + 1)
		if k == 0 {
			return Choose(n, 0) == 1
		}
		return Choose(n, k) == Choose(n-1, k-1)+Choose(n-1, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollocationCountMatchesPaperFormula(t *testing.T) {
	// The five Figure 10 configurations.
	cases := []struct {
		k, n int
		want float64
	}{
		{2, 2, 5},   // C(2,1)+C(3,2) = 2+3
		{2, 4, 14},  // 4+10
		{3, 4, 34},  // 4+10+20
		{4, 4, 69},  // 4+10+20+35
		{4, 6, 209}, // 6+21+56+126 (paper text says "119"; formula says 209)
	}
	for _, c := range cases {
		if got := CollocationCount(c.n, c.k); got != c.want {
			t.Errorf("CollocationCount(n=%d,k=%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestCollocationsEnumerationMatchesCount(t *testing.T) {
	for _, c := range []struct{ n, k int }{{2, 2}, {4, 2}, {4, 3}, {4, 4}, {6, 4}} {
		cols, err := Collocations(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		want := CollocationCount(c.n, c.k)
		if float64(len(cols)) != want {
			t.Errorf("n=%d k=%d: enumerated %d, formula %v", c.n, c.k, len(cols), want)
		}
		// Each collocation is valid and unique.
		seen := make(map[string]bool)
		for _, col := range cols {
			if col.Size() < 1 || col.Size() > c.k {
				t.Errorf("collocation %v has invalid size %d", col.Counts, col.Size())
			}
			label := col.Label()
			if label == "" {
				t.Error("empty label")
			}
			if seen[label] {
				t.Errorf("duplicate collocation %s", label)
			}
			seen[label] = true
		}
	}
}

func TestCollocationsErrors(t *testing.T) {
	if _, err := Collocations(0, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Collocations(2, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCollocationLabel(t *testing.T) {
	c := Collocation{Counts: []int{2, 0, 1}}
	if got := c.Label(); got != "T1x2+T3" {
		t.Errorf("label = %q, want T1x2+T3", got)
	}
}

func TestSCMSBuildsFamily(t *testing.T) {
	db := tech.Default()
	cfg := SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1, 2, 4},
		Scheme: packaging.MCM, QuantityPerSystem: 500_000,
		Params: packaging.DefaultParams(),
	}
	systems, err := SCMS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 3 {
		t.Fatalf("systems = %d, want 3", len(systems))
	}
	for i, want := range []int{1, 2, 4} {
		if got := systems[i].DieCount(); got != want {
			t.Errorf("system %d: dies = %d, want %d", i, got, want)
		}
		if err := systems[i].Validate(db); err != nil {
			t.Errorf("system %d invalid: %v", i, err)
		}
		// All systems share one chiplet design.
		if systems[i].Placements[0].Chiplet.Name != systems[0].Placements[0].Chiplet.Name {
			t.Error("SCMS must reuse a single chiplet design")
		}
		if systems[i].Envelope != nil {
			t.Error("without ReusePackage there must be no envelope")
		}
	}
}

func TestSCMSPackageReuseEnvelope(t *testing.T) {
	db := tech.Default()
	cfg := SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1, 2, 4},
		Scheme: packaging.TwoPointFiveD, QuantityPerSystem: 500_000,
		ReusePackage: true, Params: packaging.DefaultParams(),
	}
	systems, err := SCMS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range systems {
		if s.Envelope == nil {
			t.Fatal("ReusePackage must attach an envelope")
		}
		if s.Envelope.Name != systems[0].Envelope.Name {
			t.Error("envelope must be shared")
		}
		if s.Envelope.InterposerAreaMM2 <= 0 {
			t.Error("2.5D envelope needs an interposer size")
		}
		if err := s.Validate(db); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
	// Envelope must be sized for the largest (4X) system.
	die := systems[0].Placements[0].Chiplet.DieArea()
	wantInt := 4 * die * cfg.Params.InterposerFill
	if !units.ApproxEqual(systems[0].Envelope.InterposerAreaMM2, wantInt, 1e-9) {
		t.Errorf("envelope interposer = %v, want %v", systems[0].Envelope.InterposerAreaMM2, wantInt)
	}
}

func TestSCMSErrors(t *testing.T) {
	base := SCMSConfig{Node: "7nm", ModuleAreaMM2: 200, Counts: []int{1}, Scheme: packaging.MCM, QuantityPerSystem: 1, Params: packaging.DefaultParams()}
	c := base
	c.Counts = nil
	if _, err := SCMS(c); err == nil {
		t.Error("no counts accepted")
	}
	c = base
	c.ModuleAreaMM2 = 0
	if _, err := SCMS(c); err == nil {
		t.Error("zero area accepted")
	}
	c = base
	c.Scheme = packaging.SoC
	if _, err := SCMS(c); err == nil {
		t.Error("SoC scheme accepted")
	}
	c = base
	c.Counts = []int{0}
	if _, err := SCMS(c); err == nil {
		t.Error("zero count accepted")
	}
}

func TestOCMEBuildsFourSystems(t *testing.T) {
	db := tech.Default()
	cfg := OCMEConfig{
		Node: "7nm", SocketAreaMM2: 160, Scheme: packaging.MCM,
		QuantityPerSystem: 500_000, Params: packaging.DefaultParams(),
	}
	systems, err := OCME(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 4 {
		t.Fatalf("systems = %d, want 4", len(systems))
	}
	wantDies := []int{1, 2, 3, 5}
	wantNames := []string{"C", "C+1X", "C+1X+1Y", "C+2X+2Y"}
	for i, s := range systems {
		if s.Name != wantNames[i] {
			t.Errorf("system %d name = %q, want %q", i, s.Name, wantNames[i])
		}
		if got := s.DieCount(); got != wantDies[i] {
			t.Errorf("%s: dies = %d, want %d", s.Name, got, wantDies[i])
		}
		if err := s.Validate(db); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
		// Center chiplet is shared by all systems.
		if s.Placements[0].Chiplet.Name != systems[0].Placements[0].Chiplet.Name {
			t.Error("center die must be reused")
		}
	}
}

func TestOCMEHeterogeneousCenter(t *testing.T) {
	cfg := OCMEConfig{
		Node: "7nm", CenterNode: "14nm", SocketAreaMM2: 160,
		Scheme: packaging.MCM, QuantityPerSystem: 500_000,
		Params: packaging.DefaultParams(),
	}
	systems, err := OCME(cfg)
	if err != nil {
		t.Fatal(err)
	}
	center := systems[0].Placements[0].Chiplet
	if center.Node != "14nm" {
		t.Errorf("center node = %s, want 14nm", center.Node)
	}
	// The unscalable module keeps its area on the mature node.
	if center.ModuleArea() != 160 {
		t.Errorf("center module area = %v, want 160", center.ModuleArea())
	}
	if center.Modules[0].Scalable {
		t.Error("center module must be unscalable")
	}
	// Extensions stay on the advanced node.
	ext := systems[1].Placements[1].Chiplet
	if ext.Node != "7nm" {
		t.Errorf("extension node = %s, want 7nm", ext.Node)
	}
}

func TestOCMEPackageReuse(t *testing.T) {
	cfg := OCMEConfig{
		Node: "7nm", SocketAreaMM2: 160, Scheme: packaging.MCM,
		QuantityPerSystem: 500_000, ReusePackage: true,
		Params: packaging.DefaultParams(),
	}
	systems, err := OCME(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range systems {
		if s.Envelope == nil || s.Envelope.Name != "OCME-family" {
			t.Fatalf("%s: missing shared envelope", s.Name)
		}
	}
	// Envelope must cover C + 4 extensions.
	die := systems[0].Placements[0].Chiplet.DieArea()
	want := 5 * die * cfg.Params.DieSpacingFactor
	if !units.ApproxEqual(systems[0].Envelope.FootprintMM2, want, 1e-9) {
		t.Errorf("envelope footprint = %v, want %v", systems[0].Envelope.FootprintMM2, want)
	}
}

func TestOCMEErrors(t *testing.T) {
	if _, err := OCME(OCMEConfig{Node: "7nm", SocketAreaMM2: 0, Scheme: packaging.MCM}); err == nil {
		t.Error("zero socket area accepted")
	}
	if _, err := OCME(OCMEConfig{Node: "7nm", SocketAreaMM2: 100, Scheme: packaging.SoC}); err == nil {
		t.Error("SoC scheme accepted")
	}
}

func TestFSMCBuildsAllCollocations(t *testing.T) {
	db := tech.Default()
	cfg := FSMCConfig{
		Node: "7nm", ModuleAreaMM2: 150, Types: 4, Sockets: 3,
		Scheme: packaging.MCM, QuantityPerSystem: 500_000,
		Params: packaging.DefaultParams(),
	}
	systems, err := FSMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := CollocationCount(4, 3); float64(len(systems)) != want {
		t.Fatalf("systems = %d, want %v", len(systems), want)
	}
	names := make(map[string]bool)
	for _, s := range systems {
		if err := s.Validate(db); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate system name %q", s.Name)
		}
		names[s.Name] = true
		if s.Envelope == nil {
			t.Errorf("%s: FSMC must share a package envelope", s.Name)
		}
		if s.DieCount() < 1 || s.DieCount() > 3 {
			t.Errorf("%s: %d dies outside 1..3", s.Name, s.DieCount())
		}
	}
}

func TestFSMCErrors(t *testing.T) {
	base := FSMCConfig{Node: "7nm", ModuleAreaMM2: 150, Types: 2, Sockets: 2,
		Scheme: packaging.MCM, QuantityPerSystem: 1, Params: packaging.DefaultParams()}
	c := base
	c.ModuleAreaMM2 = -1
	if _, err := FSMC(c); err == nil {
		t.Error("negative area accepted")
	}
	c = base
	c.Scheme = packaging.SoC
	if _, err := FSMC(c); err == nil {
		t.Error("SoC scheme accepted")
	}
	c = base
	c.Types = 0
	if _, err := FSMC(c); err == nil {
		t.Error("zero types accepted")
	}
}

func TestSoCEquivalent(t *testing.T) {
	cfg := SCMSConfig{
		Node: "7nm", ModuleAreaMM2: 200, Counts: []int{4},
		Scheme: packaging.MCM, QuantityPerSystem: 500_000,
		Params: packaging.DefaultParams(),
	}
	systems, err := SCMS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	soc := SoCEquivalent(systems[0], "7nm")
	if soc.TotalModuleArea() != 800 {
		t.Errorf("SoC module area = %v, want 800", soc.TotalModuleArea())
	}
	// The monolithic die carries no D2D: its die area equals module
	// area, strictly below the chiplet system's total die area.
	if soc.TotalDieArea() >= systems[0].TotalDieArea() {
		t.Error("SoC die area should be below the chiplet total (no D2D)")
	}
	if soc.Quantity != systems[0].Quantity {
		t.Error("quantity must carry over")
	}
}

// TestSoCEquivalentAllocations pins a twin at two allocations (its
// names string and its placement-and-module block) on both sides of
// the 32-byte stack buffer a name+"-SoC" concatenation would use.
func TestSoCEquivalentAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	for _, n := range []int{8, 28, 29, 40, 200} {
		s := system.Monolithic(strings.Repeat("m", n), "7nm", 100, 5e5)
		var soc system.System
		if allocs := testing.AllocsPerRun(50, func() { soc = SoCEquivalent(s, "5nm") }); allocs != 2 {
			t.Errorf("SoCEquivalent of a %d-byte name: %v allocations, want 2", n, allocs)
		}
		if want := s.Name + "-SoC"; soc.Name != want || soc.Placements[0].Chiplet.Name != want+"-die" ||
			soc.Placements[0].Chiplet.Modules[0].Name != want+"-logic" {
			t.Errorf("SoCEquivalent of a %d-byte name: names %q, %q, %q", n,
				soc.Name, soc.Placements[0].Chiplet.Name, soc.Placements[0].Chiplet.Modules[0].Name)
		}
	}
}

func TestPropertyCollocationEnumerationCount(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw%5)
		k := 1 + int(kRaw%4)
		cols, err := Collocations(n, k)
		if err != nil {
			return false
		}
		return float64(len(cols)) == CollocationCount(n, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultichoose(t *testing.T) {
	if got := Multichoose(6, 4); got != 126 {
		t.Errorf("Multichoose(6,4) = %v, want 126", got)
	}
	if got := Multichoose(4, 1); got != 4 {
		t.Errorf("Multichoose(4,1) = %v, want 4", got)
	}
	// Guard against float drift on larger values.
	if got := Choose(30, 15); math.Abs(got-155117520) > 0.5 {
		t.Errorf("Choose(30,15) = %v, want 155117520", got)
	}
}
