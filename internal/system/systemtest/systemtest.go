// Package systemtest draws seeded random systems and portfolios for
// differential tests of the general evaluation paths: System.Validate,
// the cost engine's per-placement walk and the NRE engine's portfolio
// table. The draws mix shapes those paths must price or reject
// exactly:
//
//   - chiplet and module names shared across a portfolio, and the same
//     names used for different designs;
//   - names that probe the byte order of design keys ("A", "A-", "A/",
//     "A/b", "m/x", "x/A") and node names that are prefixes of one
//     another or contain a slash ("7nm", "7nm-lp", "7nm/x");
//   - reused package envelopes, some too small for their dies;
//   - salvage, SoCs that mount several dies and unknown nodes;
//   - NaN, zero and negative module areas, and zero, negative and
//     fractional quantities and counts;
//   - now and then, a system or a portfolio wider than 64, past any
//     pairwise name scan.
package systemtest

import (
	"fmt"
	"math"
	"math/rand/v2"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Nodes are the process nodes the draws use; DB knows all but the last.
var Nodes = []string{"5nm", "7nm", "7nm-lp", "7nm/x", "14nm", "no-such-node"}

// Names are the chiplet, module and envelope names the draws use.
var Names = []string{"A", "A-", "A/", "A/b", "m/x", "x/A", "B"}

// DB returns the default technology database plus "7nm-lp", a 7nm
// copy with cheaper module design, and "7nm/x", an exact 7nm copy, so
// that module "x/A" on 7nm and module "A" on 7nm/x share one design key
// and price alike.
func DB() *tech.Database {
	db := tech.Default()
	base := db.MustNode("7nm")
	lp, x := base, base
	lp.Name, lp.Km = "7nm-lp", base.Km*0.8
	x.Name = "7nm/x"
	for _, n := range []tech.Node{lp, x} {
		var err error
		if db, err = db.Override(n); err != nil {
			panic(err)
		}
	}
	return db
}

// Gen draws from one seeded random stream.
type Gen struct {
	r *rand.Rand
}

// New returns a generator whose draws depend only on seed.
func New(seed uint64) *Gen {
	return &Gen{r: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.IntN(len(xs))] }

// one reports true with probability 1/n.
func (g *Gen) one(n int) bool { return g.r.IntN(n) == 0 }

func (g *Gen) area() float64 {
	switch {
	case g.one(60):
		return math.NaN()
	case g.one(80):
		return pick(g.r, 0, -5.0)
	}
	return pick(g.r, 20, 30, 60, 150, 333.3)
}

func (g *Gen) node() string {
	if g.one(40) {
		return Nodes[len(Nodes)-1]
	}
	return pick(g.r, Nodes[:len(Nodes)-1]...)
}

// Chiplet draws a chiplet of one or two modules.
func (g *Gen) Chiplet() system.Chiplet {
	c := system.Chiplet{Name: pick(g.r, Names...), Node: g.node()}
	for n := 1 + g.r.IntN(2); n > 0; n-- {
		// Most modules of one name have one area, so they share a
		// design; the rest conflict with it.
		i := g.r.IntN(len(Names))
		area := 10 + 25*float64(i)
		if g.one(4) {
			area = g.area()
		}
		c.Modules = append(c.Modules, system.Module{Name: Names[i], AreaMM2: area})
	}
	switch g.r.IntN(5) {
	case 0:
	case 1:
		c.D2D = dtod.Fraction{F: 0.25}
	default:
		c.D2D = dtod.Fraction{F: 0.10}
	}
	if g.one(6) {
		c.Salvage = &system.SalvageSpec{Fraction: pick(g.r, 0.2, 0.2, 0.2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.5), Value: 0.5}
	}
	switch {
	case g.one(200):
		c.Name = ""
	case g.one(200):
		c.Modules = nil
	}
	return c
}

func (g *Gen) count() int {
	if g.one(100) {
		return pick(g.r, 0, -1)
	}
	return pick(g.r, 1, 1, 1, 2, 4)
}

// System draws a system named name whose chiplets come from pool, now
// and then with a fresh chiplet that may reuse a pool name for another
// design, and whose envelope, if any, comes from envs.
func (g *Gen) System(name string, pool []system.Chiplet, envs []*system.Envelope) system.System {
	s := system.System{
		Name:     name,
		Scheme:   pick(g.r, packaging.Schemes...),
		Flow:     pick(g.r, packaging.ChipLast, packaging.ChipFirst),
		Quantity: pick(g.r, 1, 1e5, 5e5, 123456.7, 234567.8, 345678.9),
	}
	if g.one(30) {
		s.Quantity = pick(g.r, 0, 0, -1.0)
	}
	n := 1 + g.r.IntN(3)
	if g.one(400) {
		n = 65 + g.r.IntN(8)
	}
	for i := 0; i < n; i++ {
		c := pick(g.r, pool...)
		if g.one(12) {
			c = g.Chiplet()
		}
		s.Placements = append(s.Placements, system.Placement{Chiplet: c, Count: g.count()})
	}
	if s.Scheme == packaging.SoC && !g.one(10) {
		s.Placements = s.Placements[:1]
		s.Placements[0].Count = 1
	}
	if g.one(200) {
		s.Placements = nil
	}
	if len(envs) > 0 && g.one(3) {
		s.Envelope = pick(g.r, envs...)
	}
	return s
}

// Portfolio draws one to five systems (now and then more than 64)
// sharing a pool of chiplets and envelopes; system names are unique
// except, now and then, for one duplicate.
func (g *Gen) Portfolio() []system.System {
	pool := make([]system.Chiplet, 1+g.r.IntN(4))
	names := g.r.Perm(len(Names))
	for i := range pool {
		pool[i] = g.Chiplet()
		if pool[i].Name != "" && !g.one(10) {
			pool[i].Name = Names[names[i]]
		}
	}
	var envs []*system.Envelope
	for i := g.r.IntN(3); i > 0; i-- {
		env := &system.Envelope{
			Name:              pick(g.r, "E", "A", "s0"),
			FootprintMM2:      pick(g.r, 40, 400, 4000.0),
			InterposerAreaMM2: pick(g.r, 0, 300, 3000.0),
		}
		if g.one(20) {
			env.Name, env.FootprintMM2 = pick(g.r, "", "E"), pick(g.r, 0, -1.0, 400)
		}
		envs = append(envs, env)
	}
	n := 1 + g.r.IntN(5)
	if g.one(500) {
		n = 65 + g.r.IntN(8)
	}
	out := make([]system.System, n)
	for i := range out {
		out[i] = g.System(fmt.Sprintf("s%d", i), pool, envs)
	}
	if n > 1 && g.one(30) {
		out[g.r.IntN(n)].Name = out[g.r.IntN(n)].Name
	}
	return out
}
