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
	"hash/maphash"
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
	per := make([]Breakdown, len(systems))
	rows, err := e.table(systems, policy, nil, per, make([]row, 0, claimCount(systems)))
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
		for r := lo; r < hi; r++ {
			d.InstancesBySystem[systems[rows[r].sys].Name] = rows[r].inst
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
	per := make([]Breakdown, len(systems))
	if _, err := e.table(systems, policy, nil, per, make([]row, 0, claimCount(systems))); err != nil {
		return nil, err
	}
	return per, nil
}

// PerUnitPackaged is PerUnit written into per, which the caller owns,
// that also hands back the package partial the walk priced for each
// system in pkgs[i]; len(per) == len(pkgs) == len(systems). When it
// returns no error, every system has passed System.Validate and its
// package prices as pkgs[i], so a caller pricing RE next can pass both
// on (cost.Engine.REPackaged) instead of validating and probing again.
// On an error, per holds no answer and pkgs holds partials for a prefix
// of the systems at most.
//
// The design table's claim rows live on the stack up to 256 claims, in
// a buffer sized to the claim count as fold's scratch is, so that a
// small portfolio zeroes little; a longer walk takes them from the heap.
func (e *Engine) PerUnitPackaged(systems []system.System, policy Policy, pkgs []packaging.Partial, per []Breakdown) error {
	if len(pkgs) != len(systems) || len(per) != len(systems) {
		return fmt.Errorf("nre: %d package and %d per-unit slots for %d systems", len(pkgs), len(per), len(systems))
	}
	var err error
	switch n := claimCount(systems); {
	case n <= 32:
		var buf [32]row
		_, err = e.table(systems, policy, pkgs, per, buf[:0:n])
	case n <= 128:
		var buf [128]row
		_, err = e.table(systems, policy, pkgs, per, buf[:0:n])
	case n <= 256:
		var buf [256]row
		_, err = e.table(systems, policy, pkgs, per, buf[:0:n])
	default:
		_, err = e.table(systems, policy, pkgs, per, make([]row, 0, n))
	}
	return err
}

// claimCount bounds the number of claims the walk makes for systems:
// one per chip, module and D2D design of each placement, and one per
// package.
func claimCount(systems []system.System) int {
	n := 0
	for i := range systems {
		for j := range systems[i].Placements {
			n += len(systems[i].Placements[j].Chiplet.Modules) + 2
		}
		n++
	}
	return n
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

// same reports whether k and o name one design, that is whether their
// key strings are equal: compare(o) == 0, without ordering. Keys that
// differ field by field may still join to one string (module "A" on
// node "7nm/x" and module "x/A" on node "7nm").
func (k *designKey) same(o *designKey) bool {
	if k.kind != o.kind {
		return false
	}
	switch k.kind {
	case ModuleDesign:
		if k.node == o.node {
			return k.name == o.name
		}
		return len(k.node)+len(k.name) == len(o.node)+len(o.name) && compareJoined(k.node, k.name, o.node, o.name) == 0
	case D2DDesign:
		return k.node == o.node
	default:
		return k.name == o.name
	}
}

// hashSeed seeds the design table's hash. The table's output does not
// depend on hash values, only on which keys are equal.
var hashSeed = maphash.MakeSeed()

// hash hashes the key's string form without building it, from its
// kind, its length and its last segment, the bytes after its last
// slash. All three are functions of the string alone, so keys whose
// strings are equal hash equally however a module key splits its
// string between node and name.
func (k *designKey) hash() uint64 {
	// The string is the kind's prefix, which ends in a slash, then
	// node+"/"+name for a module, the node for a D2D design and the
	// name otherwise.
	last, n := k.name, len(k.node)+1+len(k.name)
	switch k.kind {
	case D2DDesign:
		last, n = k.node, len(k.node)
	case ChipDesign, PackageDesign:
		n = len(k.name)
	}
	if i := strings.LastIndexByte(last, '/'); i >= 0 {
		last = last[i+1:]
	}
	return maphash.String(hashSeed, last) ^ (uint64(n)<<2|uint64(k.kind))*0x9e3779b97f4a7c15
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
// step step. The walk appends one row per claim; fold groups the rows
// by design, orders the designs by key and folds each system's claims
// on a design into one row, so a design is a run of rows, one per
// consuming system in portfolio order, whose first row has head set.
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

// table validates the portfolio, builds its design table in rows, an
// empty slice with room for claimCount(systems) claims, and amortizes
// every design over the systems that consume it: per[i] receives the
// per-unit NRE of systems[i], and pkgs[i], unless pkgs is nil, the
// package partial the walk priced for it. Errors surface in the order
// of a walk over the systems (validation first, then each placement's
// designs and each package in turn), and amortization errors in key
// order.
func (e *Engine) table(systems []system.System, policy Policy, pkgs []packaging.Partial, per []Breakdown, rows []row) ([]row, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("nre: empty portfolio")
	}
	dup := firstDuplicate(systems)
	for i := range systems {
		if err := systems[i].Validate(e.db); err != nil {
			return nil, err
		}
		if i == dup {
			return nil, fmt.Errorf("nre: duplicate system name %q", systems[i].Name)
		}
	}
	rows, walkErr := e.walkPackaged(systems, pkgs, rows)
	// The walk stops at its first error, so a conflicting claim among
	// the rows it made came before that error and wins.
	rows, err := fold(rows)
	if err != nil {
		return nil, err
	}
	if walkErr != nil {
		return nil, walkErr
	}
	if err := amortize(rows, systems, policy, per); err != nil {
		return nil, err
	}
	return rows, nil
}

// walk claims every design the portfolio uses, one row per claim in
// walk order, and stops at the first error.
func (e *Engine) walk(systems []system.System) ([]row, error) {
	return e.walkPackaged(systems, nil, make([]row, 0, claimCount(systems)))
}

// walkPackaged is walk appending to rows, which has room for every
// claim, that also stores each system's package partial in pkgs[i],
// unless pkgs is nil. Each claim is written straight into its row, and
// each node is read in place by id.
func (e *Engine) walkPackaged(systems []system.System, pkgs []packaging.Partial, rows []row) ([]row, error) {
	var own packaging.Partial // the partial of a system whose caller keeps none
	for i := range systems {
		s := &systems[i]
		// Module and chip designs, Eq. (6)/(8).
		for j := range s.Placements {
			p := &s.Placements[j]
			c := &p.Chiplet
			id, err := e.db.NodeID(c.Node)
			if err != nil {
				return rows, err
			}
			node := e.db.NodeByID(id)
			inst := float64(p.Count)
			rows = claim(rows, ChipDesign, "", c.Name, node.Kc*c.DieArea()+node.FixedChipNRE, i, inst)
			for k := range c.Modules {
				m := &c.Modules[k]
				rows = claim(rows, ModuleDesign, c.Node, m.Name, node.Km*m.AreaMM2, i, inst)
			}
			if c.D2DArea() > 0 {
				rows = claim(rows, D2DDesign, c.Node, "", node.D2DNRE, i, inst)
			}
		}
		// Package design, Eq. (7)/(8).
		pt := &own
		if pkgs != nil {
			pt = &pkgs[i]
		}
		if err := e.packagePartial(s, pt); err != nil {
			return rows, err
		}
		kp, fixed := s.Scheme.NREFactors()
		rows = claim(rows, PackageDesign, "", s.PackageName(), kp*(pt.Result.SubstrateAreaMM2+pt.Result.InterposerAreaMM2)+fixed, i, 1)
	}
	return rows, nil
}

// claim appends system sys's claim of inst copies of a design at cost
// to rows, written in place in the next row of rows' spare capacity,
// which claimCount sized for every claim of the walk.
func claim(rows []row, kind Kind, node, name string, cost float64, sys int, inst float64) []row {
	n := len(rows)
	rows = rows[:n+1]
	r := &rows[n]
	r.key.kind, r.key.node, r.key.name = kind, node, name
	r.cost, r.inst, r.sys, r.step, r.head = cost, inst, sys, n, false
	return rows
}

// fold groups the claims by design and folds each system's claims on a
// design into one row, in place, leaving the designs in key order and
// each design's claims in walk order. Claims are grouped through a hash
// index over each key's string form, so only the distinct designs are
// sorted, and a stable counting pass orders the claims. Claims fold
// through that order before any row moves, and each row that stays
// then moves at most once. A design costs what its first claim says;
// the earliest claim at another cost is an error.
func fold(rows []row) ([]row, error) {
	n := len(rows)
	slots := 16
	for slots < 2*n {
		slots *= 2
	}
	// Scratch sized to the claim count, on the stack up to 512 claims:
	// a small portfolio zeroes a small buffer.
	switch need := slots + 3*n; {
	case need <= 160:
		var buf [160]int32
		return foldIn(rows, buf[:need], slots)
	case need <= 640:
		var buf [640]int32
		return foldIn(rows, buf[:need], slots)
	case need <= 2560:
		var buf [2560]int32
		return foldIn(rows, buf[:need], slots)
	default:
		return foldIn(rows, make([]int32, need), slots)
	}
}

// foldIn is fold on zeroed scratch of slots+3·len(rows) words, slots a
// power of two of at least 2·len(rows): the hash index, each claim's
// design and each design's first claim and claim count. Once every
// claim is grouped, the index words hold the designs' sorted order and
// then the gather permutation.
func foldIn(rows []row, scratch []int32, slots int) ([]row, error) {
	n := len(rows)
	index := scratch[:slots]
	design := scratch[slots : slots+n]
	first := scratch[slots+n : slots+2*n]
	count := scratch[slots+2*n : slots+3*n]
	mask := uint64(slots - 1)
	d := int32(0)
	for i := range rows {
		k := &rows[i].key
		for j := k.hash() & mask; ; j = (j + 1) & mask {
			x := index[j] - 1
			if x < 0 {
				index[j] = d + 1
				first[d], count[d] = int32(i), 1
				design[i] = d
				d++
				break
			}
			if rows[first[x]].key.same(k) {
				design[i] = x
				count[x]++
				break
			}
		}
	}
	// d + n ≤ 2n ≤ slots words: the order, then the permutation.
	order := index[:d]
	for x := range order {
		order[x] = int32(x)
	}
	slices.SortFunc(order, func(a, b int32) int { return rows[first[a]].key.compare(&rows[first[b]].key) })
	end := int32(0)
	for _, x := range order {
		end, count[x] = end+count[x], end
	}
	// count[x] is now design x's first position; the counting pass
	// leaves it at the design's end.
	perm := index[d : int(d)+n]
	for i := range rows {
		x := design[i]
		perm[count[x]] = int32(i)
		count[x]++
	}

	// Fold through perm, in sorted order, before any row moves: a claim
	// that folds into its system's previous claim on the design is never
	// moved, and perm is compacted to the rows that stay.
	var conflict struct {
		key        designKey
		cost, prev float64
		step       int
	}
	conflict.step = -1
	w, lo := 0, 0
	for _, x := range order {
		hi := int(count[x])
		cost := rows[perm[lo]].cost
		for r := lo; r < hi; r++ {
			row := &rows[perm[r]]
			if r > lo {
				if row.cost != cost && (conflict.step < 0 || row.step < conflict.step) {
					conflict.key, conflict.cost, conflict.prev, conflict.step = row.key, row.cost, cost, row.step
				}
				if prev := &rows[perm[w-1]]; prev.sys == row.sys {
					prev.inst += row.inst
					continue
				}
			}
			row.head = r == lo
			perm[w] = perm[r]
			w++
		}
		lo = hi
	}
	if conflict.step >= 0 {
		return nil, fmt.Errorf("nre: design %q used with two different costs (%v vs %v): same name must mean same design",
			conflict.key.String(), conflict.prev, conflict.cost)
	}
	permute(rows, perm[:w])
	return rows[:w], nil
}

// permuteNeeded flags, in a perm word, a destination whose row another
// destination takes. Claim counts stay far below it.
const permuteNeeded = 1 << 30

// permute reorders rows so that rows[k] is the row that was at perm[k]
// for each k < len(perm), moving each row that stays at most once;
// perm is injective, and the rows from len(perm) on are left in no
// particular order. A chain of moves that ends at a destination whose
// row no one takes is walked back from that end, one move per row; the
// cycles left over take one extra move each. It consumes perm.
func permute(rows []row, perm []int32) {
	w := int32(len(perm))
	for k := range perm {
		if src := perm[k] &^ permuteNeeded; src < w {
			perm[src] |= permuteNeeded
		}
	}
	for end := range perm {
		if perm[end]&permuteNeeded != 0 {
			continue
		}
		for j := int32(end); ; {
			src := perm[j] &^ permuteNeeded
			perm[j] = -1
			rows[j] = rows[src]
			if src >= w {
				break
			}
			j = src
		}
	}
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		if int(perm[i]&^permuteNeeded) == i {
			perm[i] = -1
			continue
		}
		tmp := rows[i]
		j := i
		for {
			k := int(perm[j] &^ permuteNeeded)
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
// systems that consume it into per, designs in key order and each
// design's denominator summed in portfolio order.
func amortize(rows []row, systems []system.System, policy Policy, per []Breakdown) error {
	clear(per)
	for lo := 0; lo < len(rows); {
		hi := designEnd(rows, lo)
		h := &rows[lo]
		var denom float64
		for r := lo; r < hi; r++ {
			switch policy {
			case PerInstance:
				denom += systems[rows[r].sys].Quantity * rows[r].inst
			default:
				denom += systems[rows[r].sys].Quantity
			}
		}
		if denom <= 0 {
			return fmt.Errorf("nre: design %q has no production volume to amortize over", h.key.String())
		}
		for r := lo; r < hi; r++ {
			row := &rows[r]
			var share float64
			switch policy {
			case PerInstance:
				share = h.cost * row.inst / denom
			default:
				share = h.cost / denom
			}
			b := &per[row.sys]
			switch h.key.kind {
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
	return nil
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

// packagePartial prices the system's package for its NRE geometry
// (substrate plus interposer) into *pt. It checks the dies as
// packaging.Package does for zero KGD costs and reads the partial
// through the partial cache the cost engine shares, so a caller pricing
// the system's RE can reuse it.
func (e *Engine) packagePartial(s *system.System, pt *packaging.Partial) error {
	n := 0
	var total float64
	for j := range s.Placements {
		p := &s.Placements[j]
		area := p.Chiplet.DieArea()
		if err := packaging.CheckDie(n, area, 0); err != nil {
			return err
		}
		for c := 0; c < p.Count; c++ {
			total += area
		}
		n += p.Count
	}
	if err := packaging.CheckDieCount(s.Scheme, n); err != nil {
		return err
	}
	return packaging.CachedPartial(e.partials, &e.params, e.db, s.PackageKey(n, total), pt)
}
