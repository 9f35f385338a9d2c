package explore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/system/systemtest"
)

// twoStep prices a portfolio in the two steps perfbench's decomposition
// times: NRE.Portfolio, then Cost.RE on each member in order, the first
// error winning. Each step validates the members and probes their
// packages itself.
func twoStep(ev *Evaluator, set []system.System, policy nre.Policy) (map[string]TotalCost, error) {
	res, err := ev.NRE.Portfolio(set, policy)
	if err != nil {
		return nil, err
	}
	out := make(map[string]TotalCost, len(set))
	for _, s := range set {
		re, err := ev.Cost.RE(s)
		if err != nil {
			return nil, err
		}
		out[s.Name] = TotalCost{RE: re, NRE: res.PerUnit[s.Name]}
	}
	return out, nil
}

// portfolioOutcome prints a Portfolio answer: the map's %#v bytes (fmt
// sorts map keys; NaN defeats ==), or the error string.
func portfolioOutcome(m map[string]TotalCost, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#v", m)
}

// widePortfolio draws 65 to 72 systems over one chiplet pool, wider
// than Portfolio's stack buffer for package partials. It keeps only
// systems that pass validation, produce some volume and mount pool
// chiplets alone, over a pool that prices as one system, so that a
// wide draw can price: one conflicting design or one design with no
// volume fails the whole portfolio.
func widePortfolio(gen *systemtest.Gen, ev *Evaluator, draw int) []system.System {
	var pool []system.Chiplet
	for pool == nil {
		for len(pool) < 3 {
			c := gen.Chiplet()
			if c.Validate(ev.db) == nil && !slices.ContainsFunc(pool, func(p system.Chiplet) bool { return p.Name == c.Name }) {
				pool = append(pool, c)
			}
		}
		probe := system.System{Name: "probe", Scheme: packaging.MCM, Quantity: 1}
		for _, c := range pool {
			probe.Placements = append(probe.Placements, system.Placement{Chiplet: c, Count: 1})
		}
		if _, err := ev.NRE.Portfolio([]system.System{probe}, nre.PerSystemUnit); err != nil {
			pool = nil
		}
	}
	fromPool := func(s system.System) bool {
		for _, p := range s.Placements {
			if !slices.ContainsFunc(pool, func(c system.Chiplet) bool { return reflect.DeepEqual(c, p.Chiplet) }) {
				return false
			}
		}
		return true
	}
	want := 65 + draw%8
	var out []system.System
	for len(out) < want {
		s := gen.System(fmt.Sprintf("w%d", len(out)), pool, nil)
		if s.Validate(ev.db) == nil && s.Quantity > 0 && fromPool(s) {
			out = append(out, s)
		}
	}
	return out
}

// TestPortfolioMatchesTwoStep checks the one-pass Portfolio against the
// two-step form on seeded random portfolios: prefix and slash names,
// NaN areas, envelopes, salvage, unknown nodes and portfolios wider
// than 64, on a cache-less, a default-cached and a 16-entry evicting
// evaluator, under both policies. Answers must match by %#v bytes and
// errors by message, and the KGD counters must move alike: the
// one-pass walk books a placement's other copies as the hits the
// two-step walk makes. Single on each member (its non-uniform branch
// for most draws) must match the one-member two-step form.
func TestPortfolioMatchesTwoStep(t *testing.T) {
	db, params := systemtest.DB(), packaging.DefaultParams()
	type config struct {
		name          string
		kgd, partials int
	}
	configs := []config{{"cache-less", 0, 0}, {"default-cached", 4096, DefaultPartialsCacheSize}, {"evicting", 16, 16}}
	mk := func(c config) *Evaluator {
		var ev *Evaluator
		var err error
		if c.kgd == 0 {
			ev, err = NewEvaluator(db, params)
		} else {
			ev, err = NewEvaluatorWithCaches(db, params, c.kgd, c.partials)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	n := 3000
	if testing.Short() {
		n = 600
	}
	for _, c := range configs {
		one, two, single, singleRef := mk(c), mk(c), mk(c), mk(c)
		gen := systemtest.New(20)
		priced, failed, wide, widePriced, singles := 0, 0, 0, 0, 0
		for i := 0; i < n; i++ {
			set := gen.Portfolio()
			if i%100 == 99 {
				set = widePortfolio(gen, one, i)
			}
			policy := nre.Policy(i % 2)
			got := portfolioOutcome(one.Portfolio(set, policy))
			want := portfolioOutcome(twoStep(two, set, policy))
			if got != want {
				t.Fatalf("%s draw %d (%v, %d systems):\n got %s\nwant %s\nportfolio %+v", c.name, i, policy, len(set), got, want, set)
			}
			if g, w := one.Cost.CacheStats(), two.Cost.CacheStats(); g != w {
				t.Fatalf("%s draw %d: KGD counters %+v, two-step %+v", c.name, i, g, w)
			}
			ok := len(want) < 7 || want[:7] != "error: "
			if ok {
				priced++
			} else {
				failed++
			}
			if len(set) > 64 {
				wide++
				if ok {
					widePriced++
				}
			}
			for _, s := range set {
				tc, err := single.Single(s, policy)
				m, werr := twoStep(singleRef, []system.System{s}, policy)
				if g, w := outcome(tc, err), outcome(m[s.Name], werr); g != w {
					t.Fatalf("%s draw %d: Single(%q, %v):\n got %s\nwant %s\nsystem %+v", c.name, i, s.Name, policy, g, w, s)
				}
				singles++
			}
		}
		if priced < n/5 || failed < n/5 || wide == 0 || widePriced == 0 {
			t.Fatalf("%s: draws too narrow: %d priced, %d failed, %d wider than 64 (%d priced)", c.name, priced, failed, wide, widePriced)
		}
		t.Logf("%s: %d portfolios priced, %d failed, %d wider than 64 (%d priced), %d Single calls",
			c.name, priced, failed, wide, widePriced, singles)
	}
}
