// Package nre implements the non-recurring-engineering cost model of
// the paper's §3.3 (Eq. 6–8): module design, chip design, package
// design, fixed per-tapeout costs (masks + IP) and the per-node D2D
// interface design, de-duplicated across a portfolio of systems and
// amortized over production quantity.
//
// The central accounting rule is design identity: a module design is
// paid once per (module name, node); a chip design once per chiplet
// name; a package design once per package name (systems sharing an
// Envelope share its design); the D2D interface once per process node
// that any multi-chip member uses. This is exactly how Eq. (7) models
// module reuse in SoC portfolios and Eq. (8) models the added chip
// and package reuse of multi-chip portfolios.
package nre

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Policy selects how a design's NRE is split across the systems that
// consume it. See "NRE amortization policies" in the README.
type Policy int

const (
	// PerSystemUnit (the default, used for all paper figures) splits
	// a design's cost over the total number of system units that
	// include it, regardless of how many copies each system mounts:
	// a design is done once no matter how often it is instantiated.
	PerSystemUnit Policy = iota
	// PerInstance splits over the total number of design instances
	// shipped, so a system mounting four copies bears four shares.
	// Kept as an ablation.
	PerInstance
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PerSystemUnit:
		return "per-system-unit"
	case PerInstance:
		return "per-instance"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Kind classifies a design.
type Kind int

const (
	// ModuleDesign is module design + block verification (Km·Sm).
	ModuleDesign Kind = iota
	// ChipDesign is chip physical design + system verification +
	// fixed tapeout cost (Kc·Sc + C).
	ChipDesign
	// PackageDesign is the package/interposer design (Kp·Sp + Cp).
	PackageDesign
	// D2DDesign is the per-node D2D interface design (C_D2D).
	D2DDesign
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ModuleDesign:
		return "module"
	case ChipDesign:
		return "chip"
	case PackageDesign:
		return "package"
	case D2DDesign:
		return "d2d"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Design is one de-duplicated NRE line item.
type Design struct {
	Kind Kind
	// Key is the design identity, e.g. "chip/ccd", "d2d/7nm".
	Key string
	// Cost is the total one-time cost of the design.
	Cost float64
	// InstancesBySystem records, per consuming system name, how many
	// copies one system unit mounts (1 for package and D2D designs).
	InstancesBySystem map[string]float64
}

// Breakdown is the amortized NRE per system unit, split by kind.
type Breakdown struct {
	Modules  float64
	Chips    float64
	Packages float64
	D2D      float64
}

// Total returns the summed per-unit NRE.
func (b Breakdown) Total() float64 {
	return b.Modules + b.Chips + b.Packages + b.D2D
}

// Result is the portfolio NRE evaluation.
type Result struct {
	// Designs lists every de-duplicated design, sorted by key.
	Designs []Design
	// TotalNRE is the portfolio's one-time cost (Σ design costs).
	TotalNRE float64
	// PerUnit maps system name → amortized NRE per produced unit.
	PerUnit map[string]Breakdown
}

// Engine evaluates NRE against a technology database and packaging
// parameters (needed for package geometry).
type Engine struct {
	db     *tech.Database
	params packaging.Params
	// partials routes package geometry probes through a shared
	// packaging partial cache; nil (disabled) unless the engine is
	// built with NewEngineWithCaches.
	partials *packaging.PartialCache
}

// NewEngine builds an NRE engine.
func NewEngine(db *tech.Database, params packaging.Params) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("nre: nil technology database")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{db: db, params: params}, nil
}

// Single evaluates one system as a one-member portfolio.
func (e *Engine) Single(s system.System, policy Policy) (Result, error) {
	return e.Portfolio([]system.System{s}, policy)
}

// Portfolio evaluates the NRE of a group of systems built together,
// de-duplicating shared designs and amortizing each design over the
// production that consumes it.
func (e *Engine) Portfolio(systems []system.System, policy Policy) (Result, error) {
	rows, per, err := e.table(systems, policy)
	if err != nil {
		return Result{}, err
	}
	designs := 0
	for i := range rows {
		if rows[i].head {
			designs++
		}
	}
	res := Result{Designs: make([]Design, 0, designs), PerUnit: make(map[string]Breakdown, len(systems))}
	for i := range systems {
		res.PerUnit[systems[i].Name] = per[i]
	}
	for lo := 0; lo < len(rows); {
		hi := designEnd(rows, lo)
		h := &rows[lo]
		d := Design{Kind: h.key.kind, Key: h.key.String(), Cost: h.cost,
			InstancesBySystem: make(map[string]float64, hi-lo)}
		for _, r := range rows[lo:hi] {
			d.InstancesBySystem[systems[r.sys].Name] = r.inst
		}
		res.Designs = append(res.Designs, d)
		res.TotalNRE += d.Cost
		lo = hi
	}
	return res, nil
}

// PerUnit is Portfolio's amortized NRE per system unit in portfolio
// order: out[i] is Portfolio(systems, policy).PerUnit[systems[i].Name],
// with the same errors, but without the Result's maps and design list.
func (e *Engine) PerUnit(systems []system.System, policy Policy) ([]Breakdown, error) {
	_, per, err := e.table(systems, policy)
	return per, err
}

// designKey identifies a design without building its key string: the
// chiplet name of a chip design, the node of a D2D design, the node
// and module name of a module design, and the package name of a
// package design.
type designKey struct {
	kind Kind
	node string
	name string
}

// keyPrefix starts each kind's key string. The prefixes differ in
// their first byte, so keys of different kinds order by prefix alone.
var keyPrefix = [...]string{ModuleDesign: "module/", ChipDesign: "chip/", PackageDesign: "pkg/", D2DDesign: "d2d/"}

// String returns the design's key, e.g. "chip/ccd", "d2d/7nm",
// "module/7nm/core" or "pkg/family".
func (k designKey) String() string {
	switch k.kind {
	case ModuleDesign:
		return keyPrefix[k.kind] + k.node + "/" + k.name
	case D2DDesign:
		return keyPrefix[k.kind] + k.node
	default:
		return keyPrefix[k.kind] + k.name
	}
}

// compare orders two keys exactly as their String forms compare, byte
// by byte, without building them; equal keys name the same design.
func (k *designKey) compare(o *designKey) int {
	if k.kind != o.kind {
		return strings.Compare(keyPrefix[k.kind], keyPrefix[o.kind])
	}
	switch k.kind {
	case ModuleDesign:
		return compareJoined(k.node, k.name, o.node, o.name)
	case D2DDesign:
		return strings.Compare(k.node, o.node)
	default:
		return strings.Compare(k.name, o.name)
	}
}

// compareJoined compares a1+"/"+a2 with b1+"/"+b2 without building
// either. A node name may be a prefix of another ("7nm" of "7nm-lp",
// so "7nm-lp/x" < "7nm/x") or contain a slash itself, so unequal
// nodes are compared byte by byte through the joining slash.
func compareJoined(a1, a2, b1, b2 string) int {
	if a1 == b1 {
		return strings.Compare(a2, b2)
	}
	la, lb := len(a1)+1+len(a2), len(b1)+1+len(b2)
	for i := 0; i < la && i < lb; i++ {
		if c := cmp.Compare(joinedAt(a1, a2, i), joinedAt(b1, b2, i)); c != 0 {
			return c
		}
	}
	return cmp.Compare(la, lb)
}

// joinedAt returns byte i of x+"/"+y.
func joinedAt(x, y string, i int) byte {
	switch {
	case i < len(x):
		return x[i]
	case i == len(x):
		return '/'
	default:
		return y[i-len(x)-1]
	}
}

// row is one entry of a portfolio's design table: system sys mounts
// inst copies of the design key, which costs cost, claimed at walk
// step step. The walk appends one row per claim; table sorts the rows
// by key and folds each system's claims on a design into one row, so
// a design is a run of rows, one per consuming system in portfolio
// order, whose first row has head set.
type row struct {
	key  designKey
	cost float64
	inst float64
	sys  int
	step int
	head bool
}

// designEnd returns the end of the design whose first row is rows[lo].
func designEnd(rows []row, lo int) int {
	hi := lo + 1
	for hi < len(rows) && !rows[hi].head {
		hi++
	}
	return hi
}

// table validates the portfolio, builds its design table and amortizes
// every design over the systems that consume it; per[i] is the
// per-unit NRE of systems[i]. Errors surface in the order of a walk
// over the systems (validation first, then each placement's designs
// and each package in turn), and amortization errors in key order.
func (e *Engine) table(systems []system.System, policy Policy) (rows []row, per []Breakdown, err error) {
	if len(systems) == 0 {
		return nil, nil, fmt.Errorf("nre: empty portfolio")
	}
	dup := firstDuplicate(systems)
	for i := range systems {
		if err := systems[i].Validate(e.db); err != nil {
			return nil, nil, err
		}
		if i == dup {
			return nil, nil, fmt.Errorf("nre: duplicate system name %q", systems[i].Name)
		}
	}
	rows, walkErr := e.walk(systems)
	// The walk stops at its first error, so a conflicting claim among
	// the rows it made came before that error and wins.
	if rows, err = fold(rows); err != nil {
		return nil, nil, err
	}
	if walkErr != nil {
		return nil, nil, walkErr
	}
	per, err = amortize(rows, systems, policy)
	if err != nil {
		return nil, nil, err
	}
	return rows, per, nil
}

// walk claims every design the portfolio uses, one row per claim in
// walk order, and stops at the first error.
func (e *Engine) walk(systems []system.System) ([]row, error) {
	n := 0
	for i := range systems {
		for _, p := range systems[i].Placements {
			n += len(p.Chiplet.Modules) + 2
		}
		n++
	}
	rows := make([]row, 0, n)
	claim := func(kind Kind, node, name string, cost float64, sys int, inst float64) {
		rows = append(rows, row{key: designKey{kind, node, name}, cost: cost, inst: inst, sys: sys, step: len(rows)})
	}
	for i := range systems {
		s := &systems[i]
		// Module and chip designs, Eq. (6)/(8).
		for _, p := range s.Placements {
			c := &p.Chiplet
			node, err := e.db.Node(c.Node)
			if err != nil {
				return rows, err
			}
			inst := float64(p.Count)
			claim(ChipDesign, "", c.Name, node.Kc*c.DieArea()+node.FixedChipNRE, i, inst)
			for _, m := range c.Modules {
				claim(ModuleDesign, c.Node, m.Name, node.Km*m.AreaMM2, i, inst)
			}
			if c.D2DArea() > 0 {
				claim(D2DDesign, c.Node, "", node.D2DNRE, i, inst)
			}
		}
		// Package design, Eq. (7)/(8).
		geom, err := e.packageGeometry(s)
		if err != nil {
			return rows, err
		}
		kp, fixed := s.Scheme.NREFactors()
		claim(PackageDesign, "", s.PackageName(), kp*geom+fixed, i, 1)
	}
	return rows, nil
}

// fold sorts the claims by key, claims on one design in walk order,
// and folds each system's claims on a design into one row, in place.
// A design costs what its first claim says; the earliest claim at
// another cost is an error.
func fold(rows []row) ([]row, error) {
	// Sort a permutation, then move each row once: a row is ten words,
	// too wide to shuffle through a sort. Up to 512 claims, the
	// permutation lives on the stack.
	var buf [512]int32
	perm := buf[:0]
	if len(rows) > len(buf) {
		perm = make([]int32, 0, len(rows))
	}
	for i := range rows {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := rows[a].key.compare(&rows[b].key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	permute(rows, perm)
	conflict := row{step: -1}
	var conflictPrev float64
	w := 0
	for lo := 0; lo < len(rows); {
		first := rows[lo]
		hi := lo
		for ; hi < len(rows) && rows[hi].key.compare(&first.key) == 0; hi++ {
			r := rows[hi]
			if hi > lo {
				if r.cost != first.cost && (conflict.step < 0 || r.step < conflict.step) {
					conflict, conflictPrev = r, first.cost
				}
				if rows[w-1].sys == r.sys {
					rows[w-1].inst += r.inst
					continue
				}
			}
			r.head = hi == lo
			rows[w] = r
			w++
		}
		lo = hi
	}
	if conflict.step >= 0 {
		return nil, fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design",
			conflict.key.String(), conflictPrev, conflict.cost)
	}
	return rows[:w], nil
}

// permute reorders rows so that rows[i] is the row at perm[i], moving
// each row once along the permutation's cycles; it consumes perm.
func permute(rows []row, perm []int32) {
	for i := range perm {
		if perm[i] < 0 || int(perm[i]) == i {
			continue
		}
		tmp := rows[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = -1
			if k == i {
				rows[j] = tmp
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
}

// amortize spreads each design's cost over the production of the
// systems that consume it, designs in key order and each design's
// denominator summed in portfolio order.
func amortize(rows []row, systems []system.System, policy Policy) ([]Breakdown, error) {
	per := make([]Breakdown, len(systems))
	for lo := 0; lo < len(rows); {
		hi := designEnd(rows, lo)
		d := rows[lo:hi]
		var denom float64
		for _, r := range d {
			switch policy {
			case PerInstance:
				denom += systems[r.sys].Quantity * r.inst
			default:
				denom += systems[r.sys].Quantity
			}
		}
		if denom <= 0 {
			return nil, fmt.Errorf("nre: design %q has no production volume to amortize over", d[0].key.String())
		}
		for _, r := range d {
			var share float64
			switch policy {
			case PerInstance:
				share = d[0].cost * r.inst / denom
			default:
				share = d[0].cost / denom
			}
			b := &per[r.sys]
			switch d[0].key.kind {
			case ModuleDesign:
				b.Modules += share
			case ChipDesign:
				b.Chips += share
			case PackageDesign:
				b.Packages += share
			case D2DDesign:
				b.D2D += share
			}
		}
		lo = hi
	}
	return per, nil
}

// firstDuplicate returns the index of the first system whose name an
// earlier system already has, or -1. Up to nameScanMax systems it
// compares names pairwise, which allocates nothing.
func firstDuplicate(systems []system.System) int {
	if len(systems) > nameScanMax {
		seen := make(map[string]bool, len(systems))
		for i := range systems {
			if seen[systems[i].Name] {
				return i
			}
			seen[systems[i].Name] = true
		}
		return -1
	}
	for i := 1; i < len(systems); i++ {
		for j := 0; j < i; j++ {
			if systems[j].Name == systems[i].Name {
				return i
			}
		}
	}
	return -1
}

// nameScanMax bounds firstDuplicate's pairwise scan.
const nameScanMax = 64

// packageGeometry returns the NRE-relevant package area: substrate
// plus interposer. It checks the dies as packaging.Package does for
// zero KGD costs and reads the geometry from the package's partial,
// through the partial cache the cost engine shares, so the system's
// RE evaluation finds its package already priced.
func (e *Engine) packageGeometry(s *system.System) (float64, error) {
	n := 0
	var total float64
	for _, p := range s.Placements {
		area := p.Chiplet.DieArea()
		if err := packaging.CheckDie(n, area, 0); err != nil {
			return 0, err
		}
		for c := 0; c < p.Count; c++ {
			total += area
		}
		n += p.Count
	}
	if err := packaging.CheckDieCount(s.Scheme, n); err != nil {
		return 0, err
	}
	pt, err := packaging.CachedPartial(e.partials, e.params, e.db, s.PackageKey(n, total))
	if err != nil {
		return 0, err
	}
	return pt.Result.SubstrateAreaMM2 + pt.Result.InterposerAreaMM2, nil
}
