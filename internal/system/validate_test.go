package system_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/race"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
	"chipletactuary/internal/tech"
)

// refValidate is System.Validate as it was before it became
// allocation-free: the consistency check walks a Dies() copy against a
// map of the first chiplet seen under each name. It is the reference
// model TestValidateMatchesReference checks the current code against.
func refValidate(s system.System, db *tech.Database) error {
	if s.Name == "" {
		return fmt.Errorf("system: system with empty name")
	}
	if len(s.Placements) == 0 {
		return fmt.Errorf("system: %q has no placements", s.Name)
	}
	for _, p := range s.Placements {
		if p.Count <= 0 {
			return fmt.Errorf("system: %q places %q with non-positive count %d",
				s.Name, p.Chiplet.Name, p.Count)
		}
		if err := p.Chiplet.Validate(db); err != nil {
			return fmt.Errorf("system: %q: %w", s.Name, err)
		}
	}
	if s.Scheme == packaging.SoC && s.DieCount() != 1 {
		return fmt.Errorf("system: %q is an SoC but mounts %d dies", s.Name, s.DieCount())
	}
	if s.Quantity < 0 {
		return fmt.Errorf("system: %q has negative quantity %v", s.Name, s.Quantity)
	}
	if s.Envelope != nil {
		if s.Envelope.Name == "" {
			return fmt.Errorf("system: %q reuses an unnamed package envelope", s.Name)
		}
		if s.Envelope.FootprintMM2 <= 0 {
			return fmt.Errorf("system: %q envelope has non-positive footprint", s.Name)
		}
	}
	byName := make(map[string]system.Chiplet)
	for _, c := range s.Dies() {
		if prev, ok := byName[c.Name]; ok {
			if prev.Node != c.Node || prev.DieArea() != c.DieArea() {
				return fmt.Errorf("system: %q uses chiplet name %q for two different designs",
					s.Name, c.Name)
			}
			continue
		}
		byName[c.Name] = c
	}
	return nil
}

// TestValidateMatchesReference compares Validate with the map-based
// reference on random systems, errors by message.
func TestValidateMatchesReference(t *testing.T) {
	db := systemtest.DB()
	gen := systemtest.New(1)
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	total, valid, wide, twoDesigns := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		for _, s := range gen.Portfolio() {
			total++
			got, want := s.Validate(db), refValidate(s, db)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("draw %d, %+v:\n got %v\nwant %v", i, s, got, want)
			}
			switch {
			case want == nil:
				valid++
			case strings.HasSuffix(want.Error(), "for two different designs"):
				twoDesigns++
			}
			if len(s.Placements) > 64 {
				wide++
			}
		}
	}
	if valid == 0 || wide == 0 || twoDesigns == 0 {
		t.Fatalf("draws too narrow: %d valid, %d wide, %d name-consistency errors", valid, wide, twoDesigns)
	}
	t.Logf("%d systems: %d valid, %d wide, %d name-consistency errors", total, valid, wide, twoDesigns)
}

// TestValidateRepeatsNaNDie checks that a placement of several copies
// of a NaN-area chiplet fails the name-consistency check against
// itself, as the copies fail against each other.
func TestValidateRepeatsNaNDie(t *testing.T) {
	c := system.Chiplet{Name: "n", Node: "7nm", Modules: []system.Module{{Name: "m", AreaMM2: math.NaN()}}}
	s := system.System{Name: "s", Scheme: packaging.MCM, Quantity: 1, Placements: []system.Placement{{Chiplet: c, Count: 1}}}
	if err := s.Validate(tech.Default()); err != nil {
		t.Fatalf("one NaN die: %v", err)
	}
	s.Placements[0].Count = 2
	want := `system: "s" uses chiplet name "n" for two different designs`
	if err := s.Validate(tech.Default()); err == nil || err.Error() != want {
		t.Fatalf("two NaN dies: %v, want %s", err, want)
	}
}

// TestValidateRejectsBrokenEnvelope checks that a reused package
// envelope must have a finite footprint above zero and a finite
// interposer area of zero or more, and that the error names the system
// and the field. Packaging applies an override only above zero, so each
// broken envelope below used to validate and price as a right-sized
// package.
func TestValidateRejectsBrokenEnvelope(t *testing.T) {
	c := system.Chiplet{Name: "d", Node: "7nm", Modules: []system.Module{{Name: "m", AreaMM2: 200}}}
	for _, tc := range []struct {
		footprint, interposer float64
		want                  string
	}{
		{1500, 1000, ""},
		{1500, 0, ""},
		{0, 1000, `system: "s" envelope has non-positive footprint`},
		{-1, 1000, `system: "s" envelope has non-positive footprint`},
		{math.Inf(-1), 1000, `system: "s" envelope has non-positive footprint`},
		{math.NaN(), 1000, `system: "s" envelope has non-finite footprint NaN`},
		{math.Inf(1), 1000, `system: "s" envelope has non-finite footprint +Inf`},
		{1500, -100, `system: "s" envelope has negative interposer area -100`},
		{1500, math.NaN(), `system: "s" envelope has non-finite interposer area NaN`},
		{1500, math.Inf(1), `system: "s" envelope has non-finite interposer area +Inf`},
		{1500, math.Inf(-1), `system: "s" envelope has non-finite interposer area -Inf`},
	} {
		s := system.System{Name: "s", Scheme: packaging.TwoPointFiveD, Quantity: 1,
			Placements: []system.Placement{{Chiplet: c, Count: 2}},
			Envelope:   &system.Envelope{Name: "E", FootprintMM2: tc.footprint, InterposerAreaMM2: tc.interposer}}
		if got := fmt.Sprint(s.Validate(tech.Default())); tc.want == "" && got != "<nil>" || tc.want != "" && got != tc.want {
			t.Errorf("footprint %v, interposer %v: %s, want %q", tc.footprint, tc.interposer, got, tc.want)
		}
	}
}

// TestValidateBoundsDieCount checks that Validate rejects a system that
// mounts more than system.MaxPartitionCount dies, in one placement or
// across several, and that counts whose sum overflows an int are
// rejected rather than wrapped round to a small total. The error names
// the system and the chiplet that crosses the bound. Each system is
// checked as an MCM package and, with the same counts, as an SoC, whose
// one-die check a sum that wraps round to one would otherwise pass.
func TestValidateBoundsDieCount(t *testing.T) {
	const max = system.MaxPartitionCount
	chiplet := func(name string) system.Chiplet {
		return system.Chiplet{Name: name, Node: "7nm", Modules: []system.Module{{Name: name + "-m", AreaMM2: 0.001}}}
	}
	for _, tc := range []struct {
		name   string
		counts []int
		want   string
	}{
		{"at the bound", []int{max}, ""},
		{"at the bound in two", []int{max - 1, 1}, ""},
		{"one over in one", []int{max + 1}, `system: "s" places 4097 copies of "c0", more than the bound of 4096 dies`},
		{"one over in two", []int{max, 1}, `system: "s" mounts more than the bound of 4096 dies once it places "c1"`},
		{"one over in three", []int{2048, 2048, 1}, `system: "s" mounts more than the bound of 4096 dies once it places "c2"`},
		{"two million", []int{2_000_000}, `system: "s" places 2000000 copies of "c0", more than the bound of 4096 dies`},
		{"near 2^31", []int{1<<31 - 1}, `system: "s" places 2147483647 copies of "c0", more than the bound of 4096 dies`},
		{"sum overflows", []int{math.MaxInt, math.MaxInt}, fmt.Sprintf(`system: "s" places %d copies of "c0", more than the bound of 4096 dies`, math.MaxInt)},
		{"sum wraps to one", []int{math.MaxInt, math.MaxInt, 3}, fmt.Sprintf(`system: "s" places %d copies of "c0", more than the bound of 4096 dies`, math.MaxInt)},
		{"sum overflows after the bound", []int{max, math.MaxInt}, fmt.Sprintf(`system: "s" places %d copies of "c1", more than the bound of 4096 dies`, math.MaxInt)},
	} {
		s := system.System{Name: "s", Scheme: packaging.MCM, Quantity: 1}
		for i, n := range tc.counts {
			s.Placements = append(s.Placements, system.Placement{Chiplet: chiplet(fmt.Sprintf("c%d", i)), Count: n})
		}
		if got := fmt.Sprint(s.Validate(tech.Default())); tc.want == "" && got != "<nil>" || tc.want != "" && got != tc.want {
			t.Errorf("%s %v: %s, want %q", tc.name, tc.counts, got, tc.want)
		}
		s.Scheme = packaging.SoC
		want := tc.want
		if want == "" {
			want = fmt.Sprintf(`system: "s" is an SoC but mounts %d dies`, s.DieCount())
		}
		if got := fmt.Sprint(s.Validate(tech.Default())); got != want {
			t.Errorf("%s %v on an SoC: %s, want %q", tc.name, tc.counts, got, want)
		}
	}
}

var sinkErr error

// TestValidateAllocations pins Validate at zero allocations on valid
// systems, including one that places a chiplet name twice and one of
// 64 placements, the widest the pairwise name scan takes.
func TestValidateAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations")
	}
	db := tech.Default()
	x := system.Chiplet{Name: "X", Node: "7nm", Modules: []system.Module{{Name: "m", AreaMM2: 100}}, D2D: dtod.Fraction{F: 0.1}}
	twice := system.System{Name: "twice", Scheme: packaging.MCM, Quantity: 1,
		Placements: []system.Placement{{Chiplet: x, Count: 2}, {Chiplet: x, Count: 1}}}
	wide, err := system.PartitionEqual("wide", "7nm", 6400, 64, packaging.MCM, dtod.Fraction{F: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []system.System{system.Monolithic("soc", "5nm", 400, 1), twice, wide} {
		if n := testing.AllocsPerRun(100, func() { sinkErr = s.Validate(db) }); n != 0 || sinkErr != nil {
			t.Errorf("%s: %v allocations, error %v; want 0, nil", s.Name, n, sinkErr)
		}
	}
}
