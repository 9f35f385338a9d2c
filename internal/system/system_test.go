package system

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/units"
)

func db(t *testing.T) *tech.Database {
	t.Helper()
	return tech.Default()
}

func TestMonolithic(t *testing.T) {
	s := Monolithic("big", "5nm", 800, 500_000)
	if err := s.Validate(db(t)); err != nil {
		t.Fatal(err)
	}
	if s.DieCount() != 1 {
		t.Errorf("die count = %d, want 1", s.DieCount())
	}
	if got := s.TotalDieArea(); got != 800 {
		t.Errorf("die area = %v, want 800 (no D2D on an SoC)", got)
	}
	if got := s.TotalModuleArea(); got != 800 {
		t.Errorf("module area = %v, want 800", got)
	}
	if s.Scheme != packaging.SoC {
		t.Errorf("scheme = %v, want SoC", s.Scheme)
	}
}

func TestPartitionEqualConservesModuleArea(t *testing.T) {
	d2d := dtod.Fraction{F: 0.10}
	for _, k := range []int{2, 3, 5} {
		s, err := PartitionEqual("sys", "7nm", 600, k, packaging.MCM, d2d, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(db(t)); err != nil {
			t.Fatal(err)
		}
		if got := s.TotalModuleArea(); !units.ApproxEqual(got, 600, 1e-9) {
			t.Errorf("k=%d: module area = %v, want 600", k, got)
		}
		// Die area includes 10% D2D: total = 600/0.9.
		if got := s.TotalDieArea(); !units.ApproxEqual(got, 600/0.9, 1e-9) {
			t.Errorf("k=%d: die area = %v, want %v", k, got, 600/0.9)
		}
		if s.DieCount() != k {
			t.Errorf("k=%d: die count = %d", k, s.DieCount())
		}
		// Each chiplet is a distinct design (no reuse in §4.1).
		if got := len(s.UniqueChiplets()); got != k {
			t.Errorf("k=%d: unique chiplets = %d, want %d", k, got, k)
		}
	}
}

// TestPartitionNames pins the names the builders slice out of one
// string to the per-name forms they replace, for widths past every
// digit-count boundary up to 130.
func TestPartitionNames(t *testing.T) {
	for _, name := range []string{"sys", "", strings.Repeat("long-", 30)} {
		m := Monolithic(name, "5nm", 800, 1)
		c := m.Placements[0].Chiplet
		if c.Name != name+"-die" || c.Modules[0].Name != name+"-logic" {
			t.Fatalf("Monolithic(%q) names %q / %q", name, c.Name, c.Modules[0].Name)
		}
		for k := 1; k <= 130; k++ {
			s, err := PartitionEqual(name, "7nm", 600, k, packaging.MCM, dtod.Fraction{F: 0.1}, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Placements) != k {
				t.Fatalf("k=%d: %d placements", k, len(s.Placements))
			}
			for i, p := range s.Placements {
				if want := fmt.Sprintf("%s-chiplet-%d", name, i+1); p.Chiplet.Name != want {
					t.Fatalf("k=%d chiplet %d named %q, want %q", k, i, p.Chiplet.Name, want)
				}
				if want := fmt.Sprintf("%s-part-%d", name, i+1); p.Chiplet.Modules[0].Name != want {
					t.Fatalf("k=%d module %d named %q, want %q", k, i, p.Chiplet.Modules[0].Name, want)
				}
			}
		}
	}
}

var sinkSystem System

// TestBuilderAllocations pins the builders at three allocations per
// system whatever the width: placements, modules and one name string.
func TestBuilderAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkSystem = Monolithic("big", "5nm", 800, 1e6)
	}); n > 3 {
		t.Errorf("Monolithic: %v allocations, want ≤ 3", n)
	}
	var d2d dtod.Overhead = dtod.Fraction{F: 0.1} // converted once, outside the count
	for _, k := range []int{2, 8, 64} {
		if n := testing.AllocsPerRun(100, func() {
			sinkSystem, _ = PartitionEqual("sys", "7nm", 600, k, packaging.MCM, d2d, 1e6)
		}); n > 3 {
			t.Errorf("PartitionEqual k=%d: %v allocations, want ≤ 3", k, n)
		}
	}
}

func TestPartitionEqualSoCSpecialCases(t *testing.T) {
	s, err := PartitionEqual("sys", "7nm", 600, 1, packaging.SoC, dtod.Fraction{F: 0.1}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalDieArea() != 600 {
		t.Errorf("k=1 SoC must carry no D2D, got %v", s.TotalDieArea())
	}
	if _, err := PartitionEqual("sys", "7nm", 600, 2, packaging.SoC, dtod.None{}, 1e6); err == nil {
		t.Error("partitioning an SoC into 2 should fail")
	}
	if _, err := PartitionEqual("sys", "7nm", 600, 0, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := PartitionEqual("sys", "7nm", -1, 2, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("negative area should fail")
	}
}

func TestPartitionWeighted(t *testing.T) {
	s, err := PartitionWeighted("sys", "7nm", 600, []float64{3, 1}, packaging.MCM, dtod.None{}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Placements[0].Chiplet.ModuleArea()
	b := s.Placements[1].Chiplet.ModuleArea()
	if !units.ApproxEqual(a, 450, 1e-9) || !units.ApproxEqual(b, 150, 1e-9) {
		t.Errorf("weighted areas = %v, %v; want 450, 150", a, b)
	}
	for _, bad := range [][]float64{nil, {}, {1, -1}, {0}} {
		if _, err := PartitionWeighted("sys", "7nm", 600, bad, packaging.MCM, dtod.None{}, 1e6); err == nil {
			t.Errorf("weights %v accepted", bad)
		}
	}
	if _, err := PartitionWeighted("sys", "7nm", 0, []float64{1}, packaging.MCM, dtod.None{}, 1e6); err == nil {
		t.Error("zero area accepted")
	}
	if _, err := PartitionWeighted("sys", "7nm", 100, []float64{1, 2}, packaging.SoC, dtod.None{}, 1e6); err == nil {
		t.Error("multi-chiplet SoC accepted")
	}
}

func TestPropertyPartitionConservation(t *testing.T) {
	f := func(area float64, kRaw uint8, frac float64) bool {
		area = 50 + math.Mod(math.Abs(area), 800)
		k := 2 + int(kRaw%6)
		frac = math.Mod(math.Abs(frac), 0.3)
		s, err := PartitionEqual("p", "7nm", area, k, packaging.MCM, dtod.Fraction{F: frac}, 1)
		if err != nil {
			return false
		}
		if !units.ApproxEqual(s.TotalModuleArea(), area, 1e-9) {
			return false
		}
		if frac > 0 && s.TotalDieArea() <= s.TotalModuleArea() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipletAreas(t *testing.T) {
	c := Chiplet{
		Name: "x", Node: "7nm",
		Modules: []Module{{Name: "a", AreaMM2: 90}, {Name: "b", AreaMM2: 90}},
		D2D:     dtod.Fraction{F: 0.10},
	}
	if got := c.ModuleArea(); got != 180 {
		t.Errorf("module area = %v", got)
	}
	if got := c.DieArea(); !units.ApproxEqual(got, 200, 1e-9) {
		t.Errorf("die area = %v, want 200", got)
	}
	nil2d := Chiplet{Name: "y", Node: "7nm", Modules: []Module{{Name: "a", AreaMM2: 50}}}
	if got := nil2d.D2DArea(); got != 0 {
		t.Errorf("nil D2D should be 0, got %v", got)
	}
}

func TestChipletValidate(t *testing.T) {
	d := db(t)
	good := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}, D2D: dtod.None{}}
	if err := good.Validate(d); err != nil {
		t.Errorf("good chiplet rejected: %v", err)
	}
	cases := []Chiplet{
		{Name: "", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}},
		{Name: "x", Node: "1nm", Modules: []Module{{Name: "m", AreaMM2: 100}}},
		{Name: "x", Node: "7nm"},
		{Name: "x", Node: "7nm", Modules: []Module{{Name: "", AreaMM2: 100}}},
		{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: -1}}},
	}
	for i, c := range cases {
		if err := c.Validate(d); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestReticleWarnings(t *testing.T) {
	d := db(t)
	over := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 900}}, D2D: dtod.None{}}
	// The paper models 900 mm² SoCs, so validation passes...
	if err := over.Validate(d); err != nil {
		t.Errorf("over-reticle chiplet should validate (advisory only): %v", err)
	}
	// ...but a warning is raised.
	if w := over.Warnings(); len(w) != 1 {
		t.Errorf("warnings = %v, want exactly one reticle warning", w)
	}
	under := Chiplet{Name: "y", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 400}}, D2D: dtod.None{}}
	if w := under.Warnings(); len(w) != 0 {
		t.Errorf("unexpected warnings: %v", w)
	}
	sys := System{Name: "s", Scheme: packaging.MCM, Quantity: 1,
		Placements: []Placement{{Chiplet: over, Count: 2}, {Chiplet: under, Count: 1}}}
	if w := sys.Warnings(); len(w) != 1 {
		t.Errorf("system warnings = %v, want 1 (per design, not per instance)", w)
	}
}

func TestSystemValidate(t *testing.T) {
	d := db(t)
	mk := func() System {
		s, _ := PartitionEqual("s", "7nm", 400, 2, packaging.MCM, dtod.Fraction{F: 0.1}, 1e6)
		return s
	}
	if err := mk().Validate(d); err != nil {
		t.Fatalf("good system rejected: %v", err)
	}

	s := mk()
	s.Name = ""
	if err := s.Validate(d); err == nil {
		t.Error("empty name accepted")
	}

	s = mk()
	s.Placements = nil
	if err := s.Validate(d); err == nil {
		t.Error("no placements accepted")
	}

	s = mk()
	s.Placements[0].Count = 0
	if err := s.Validate(d); err == nil {
		t.Error("zero count accepted")
	}

	s = mk()
	s.Quantity = -1
	if err := s.Validate(d); err == nil {
		t.Error("negative quantity accepted")
	}

	s = mk()
	s.Scheme = packaging.SoC
	if err := s.Validate(d); err == nil {
		t.Error("2-die SoC accepted")
	}

	s = mk()
	s.Envelope = &Envelope{Name: "", FootprintMM2: 1000}
	if err := s.Validate(d); err == nil {
		t.Error("unnamed envelope accepted")
	}

	s = mk()
	s.Envelope = &Envelope{Name: "env", FootprintMM2: 0}
	if err := s.Validate(d); err == nil {
		t.Error("zero-footprint envelope accepted")
	}

	// One name, two designs.
	s = mk()
	clash := s.Placements[1]
	clash.Chiplet.Name = s.Placements[0].Chiplet.Name
	clash.Chiplet.Node = "5nm"
	s.Placements[1] = clash
	if err := s.Validate(d); err == nil {
		t.Error("conflicting designs under one name accepted")
	} else if !strings.Contains(err.Error(), "two different designs") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDiesExpansion(t *testing.T) {
	c := Chiplet{Name: "x", Node: "7nm", Modules: []Module{{Name: "m", AreaMM2: 100}}, D2D: dtod.None{}}
	s := System{Name: "s", Scheme: packaging.MCM, Placements: []Placement{{Chiplet: c, Count: 3}}, Quantity: 1}
	dies := s.Dies()
	if len(dies) != 3 {
		t.Fatalf("dies = %d, want 3", len(dies))
	}
	if got := len(s.UniqueChiplets()); got != 1 {
		t.Errorf("unique = %d, want 1", got)
	}
}

func TestPackageName(t *testing.T) {
	s := Monolithic("solo", "7nm", 100, 1)
	if s.PackageName() != "solo" {
		t.Errorf("own package name = %q", s.PackageName())
	}
	s.Envelope = &Envelope{Name: "family-pkg", FootprintMM2: 500}
	if s.PackageName() != "family-pkg" {
		t.Errorf("envelope package name = %q", s.PackageName())
	}
}
