package explore

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
	"chipletactuary/internal/tech"
	"chipletactuary/internal/wirejson"
)

// dirtyBreakdown is a Breakdown no pricing call produces, handed to the
// functions that fill a caller's Breakdown so that a half-filled result
// shows.
func dirtyBreakdown() cost.Breakdown {
	return cost.Breakdown{RawChips: -1, WastedKGD: -2, Dies: []cost.DieCost{{Name: "stale", Raw: -3}}}
}

// dirtyDies is a block of n die costs no pricing call produces.
func dirtyDies(n int) []cost.DieCost {
	dies := make([]cost.DieCost, n)
	for i := range dies {
		dies[i] = cost.DieCost{Name: "stale", Raw: -3}
	}
	return dies
}

// TestErrorsReturnZero checks that every pricing entry point returns its
// zero value together with its error, and that the functions filling a
// caller's Breakdown leave it zero: a half-filled result must never
// leak. The draws are systemtest's portfolios (invalid systems,
// conflicting designs, envelopes too small for their dies) and the
// uniform shapes of shapeWorlds (unknown nodes, infeasible packages,
// dies larger than the wafer, quantities of zero and below), priced on
// cache-less and cached evaluators. Each entry point must fail at least
// once.
func TestErrorsReturnZero(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 300
	}
	zeroTC, zeroRE, zeroNRE := fmt.Sprintf("%#v", TotalCost{}), fmt.Sprintf("%#v", cost.Breakdown{}), fmt.Sprintf("%#v", nre.Breakdown{})
	failures := map[string]int{}
	check := func(where, entry string, got, zero string, err error) {
		t.Helper()
		if err == nil {
			return
		}
		failures[entry]++
		if got != zero {
			t.Fatalf("%s: %s returned %s with error %v", where, entry, got, err)
		}
	}
	// price runs every entry point that applies to one system.
	price := func(ev *Evaluator, s system.System, policy nre.Policy, where string) {
		t.Helper()
		tc, err := ev.Single(s, policy)
		check(where, "Single", fmt.Sprintf("%#v", tc), zeroTC, err)
		re, err := ev.Cost.RE(s)
		check(where, "Cost.RE", fmt.Sprintf("%#v", re), zeroRE, err)
		if u, ok := system.AsUniform(s); ok {
			nb, err := ev.NRE.EvaluateUniform(s, u, policy)
			check(where, "NRE.EvaluateUniform", fmt.Sprintf("%#v", nb), zeroNRE, err)
			b := dirtyBreakdown()
			err = ev.Cost.REUniform(&s, u, &b)
			check(where, "Cost.REUniform", fmt.Sprintf("%#v", b), zeroRE, err)
		}
		// REPackaged takes a system the NRE walk has validated and
		// priced the package of.
		var pkg [1]packaging.Partial
		var per [1]nre.Breakdown
		// Both its own Dies and a caller's block must leave *b zero on
		// an error.
		if ev.NRE.PerUnitPackaged([]system.System{s}, policy, pkg[:], per[:]) == nil {
			for _, dies := range [][]cost.DieCost{nil, dirtyDies(s.DieCount())} {
				b := dirtyBreakdown()
				err := ev.Cost.REPackaged(&s, &pkg[0], dies, &b)
				check(where, "Cost.REPackaged", fmt.Sprintf("%#v", b), zeroRE, err)
			}
		}
	}
	mk := func(ev *Evaluator, err error) *Evaluator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	db, params := systemtest.DB(), packaging.DefaultParams()
	gen := systemtest.New(21)
	for _, ev := range []*Evaluator{mk(NewEvaluator(db, params)), mk(NewEvaluatorWithCaches(db, params, 64, 64))} {
		for i := 0; i < n; i++ {
			set := gen.Portfolio()
			policy := nre.Policy(i % 2)
			where := fmt.Sprintf("portfolio draw %d", i)
			m, err := ev.Portfolio(set, policy)
			check(where, "Portfolio", fmt.Sprintf("%#v", m), fmt.Sprintf("%#v", map[string]TotalCost(nil)), err)
			for _, s := range set {
				price(ev, s, policy, fmt.Sprintf("%s, system %q", where, s.Name))
			}
		}
	}
	r := rand.New(rand.NewPCG(21, 0))
	for _, w := range shapeWorlds(t) {
		for _, ev := range []*Evaluator{mk(NewEvaluator(w.db, w.params)), mk(NewEvaluatorWithCaches(w.db, w.params, 64, 64))} {
			for i := 0; i < n; i++ {
				s := drawUniform(r, w, i)
				price(ev, s, nre.Policy(i%2), fmt.Sprintf("%s uniform draw %d", w.name, i))
			}
		}
	}
	for _, entry := range []string{"Single", "Portfolio", "Cost.RE", "Cost.REUniform", "Cost.REPackaged", "NRE.EvaluateUniform"} {
		if failures[entry] == 0 {
			t.Errorf("no draw made %s fail", entry)
		}
	}
	t.Logf("failures by entry point: %v", failures)
}

// TestResultsOwnTheirDies prices one uniform shape, one general system
// and one reuse family twice each, then writes through every Dies slice
// of the first answers. The second answers must not change, and a third
// pricing must equal the second: no two answers share a buffer, and no
// answer aliases a table entry. Within one Portfolio call, whose
// members' Dies share one block, appending to or writing through one
// member's Dies must change no other member's, for general families and
// for SoC twins alike.
func TestResultsOwnTheirDies(t *testing.T) {
	params := packaging.DefaultParams()
	uniform, err := system.PartitionEqual("u", "7nm", 600, 4, packaging.TwoPointFiveD, dtod.Fraction{F: 0.1}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	families := reuseFamilies(t, params)
	general := families["FSMC 3x4"][len(families["FSMC 3x4"])-1]
	scribble := func(dies []cost.DieCost) {
		for i := range dies {
			dies[i] = cost.DieCost{Name: "scribbled", Node: "none", Raw: -1, Yield: -1, KGD: -1}
		}
	}
	cached, err := NewEvaluatorWithCaches(tech.Default(), params, 4096, DefaultPartialsCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*Evaluator{evaluator(t), cached} {
		for _, s := range []system.System{uniform, general} {
			first, err1 := ev.Single(s, nre.PerSystemUnit)
			second, err2 := ev.Single(s, nre.PerSystemUnit)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			want := fmt.Sprintf("%#v", second)
			scribble(first.RE.Dies)
			if got := fmt.Sprintf("%#v", second); got != want {
				t.Fatalf("%s: writing through the first Single's Dies changed the second:\n got %s\nwant %s", s.Name, got, want)
			}
			third, err := ev.Single(s, nre.PerSystemUnit)
			if got := outcome(third, err); got != want {
				t.Fatalf("%s: Single after the write:\n got %s\nwant %s", s.Name, got, want)
			}
			re1, _ := ev.Cost.RE(s)
			re2, err := ev.Cost.RE(s)
			if err != nil {
				t.Fatal(err)
			}
			wantRE := fmt.Sprintf("%#v", re2)
			scribble(re1.Dies)
			if got := fmt.Sprintf("%#v", re2); got != wantRE {
				t.Fatalf("%s: writing through the first RE's Dies changed the second", s.Name)
			}
		}
		set := families["OCME shared package"]
		first, err1 := ev.Portfolio(set, nre.PerSystemUnit)
		second, err2 := ev.Portfolio(set, nre.PerSystemUnit)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		want := portfolioOutcome(second, nil)
		for _, tc := range first {
			scribble(tc.RE.Dies)
		}
		if got := portfolioOutcome(second, nil); got != want {
			t.Fatalf("writing through the first Portfolio's Dies changed the second:\n got %s\nwant %s", got, want)
		}
		if got := portfolioOutcome(ev.Portfolio(set, nre.PerSystemUnit)); got != want {
			t.Fatalf("Portfolio after the write:\n got %s\nwant %s", got, want)
		}
		for _, name := range []string{"OCME shared package", "SCMS", "FSMC 3x4", "SCMS SoC twins", "FSMC 3x4 SoC twins"} {
			m, err := ev.Portfolio(families[name], nre.PerSystemUnit)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for member, tc := range m {
				want[member] = fmt.Sprintf("%#v", tc)
			}
			for _, s := range families[name] {
				dies := m[s.Name].RE.Dies
				if cap(dies) != len(dies) {
					t.Fatalf("%s %s: Dies len %d cap %d", name, s.Name, len(dies), cap(dies))
				}
				grown := append(dies, cost.DieCost{Name: "appended", Raw: -4})
				scribble(dies)
				scribble(grown[len(dies):])
				for member, tc := range m {
					if member != s.Name && fmt.Sprintf("%#v", tc) != want[member] {
						t.Fatalf("%s: writing through %s's Dies changed %s:\n got %#v\nwant %s", name, s.Name, member, tc, want[member])
					}
				}
				want[s.Name] = fmt.Sprintf("%#v", m[s.Name])
			}
		}
	}
}

// FuzzPortfolioPricing decodes its input through the strict system JSON
// decoder as an array of systems and prices it as a portfolio. Pricing
// must never panic; Portfolio on a cache-less, a default-cached and a
// 16-entry evicting evaluator must equal NRE.Portfolio followed by
// Cost.RE on a cache-less one, by %#v bytes and by error string; and
// Single on each member must equal the member's one-member Portfolio.
// The seeds are marshalled systemtest portfolios. An input that mounts
// more than system.MaxPartitionCount dies fails validation on both
// sides, so a fuzz call stays small.
func FuzzPortfolioPricing(f *testing.F) {
	gen := systemtest.New(31)
	for added := 0; added < 24; {
		data, err := json.Marshal(gen.Portfolio())
		if err != nil {
			continue // a NaN area has no JSON form
		}
		f.Add(data)
		added++
	}
	db, params := systemtest.DB(), packaging.DefaultParams()
	mk := func(ev *Evaluator, err error) *Evaluator {
		if err != nil {
			f.Fatal(err)
		}
		return ev
	}
	ref := mk(NewEvaluator(db, params))
	evs := []struct {
		name string
		ev   *Evaluator
	}{
		{"cache-less", mk(NewEvaluator(db, params))},
		{"default-cached", mk(NewEvaluatorWithCaches(db, params, 4096, DefaultPartialsCacheSize))},
		{"evicting", mk(NewEvaluatorWithCaches(db, params, 16, 16))},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var set []system.System
		if err := wirejson.UnmarshalStrict(data, &set); err != nil {
			return
		}
		policy := nre.Policy(len(data) % 2)
		want := portfolioOutcome(twoStep(ref, set, policy))
		for _, c := range evs {
			if got := portfolioOutcome(c.ev.Portfolio(set, policy)); got != want {
				t.Fatalf("%s Portfolio (%v):\n got %s\nwant %s", c.name, policy, got, want)
			}
			for _, s := range set {
				tc, err := c.ev.Single(s, policy)
				m, werr := c.ev.Portfolio([]system.System{s}, policy)
				if g, w := outcome(tc, err), outcome(m[s.Name], werr); g != w {
					t.Fatalf("%s Single(%q, %v):\n got %s\nwant %s", c.name, s.Name, policy, g, w)
				}
			}
		}
	})
}
