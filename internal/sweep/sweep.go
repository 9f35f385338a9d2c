// Package sweep implements the generation layer of the streaming
// design-space exploration pipeline: a lazy iterator over the §6
// search grid (node × packaging scheme × module area × chiplet count ×
// quantity) plus cheap feasibility pruning that runs before any cost
// math. Downstream layers (the session's Stream fan-out and the online
// aggregators in this package) consume points one at a time, so a
// 100k-point sweep never materializes as a slice.
package sweep

import (
	"fmt"
	"math"
	"strconv"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/wafer"
)

// Point is one generated design point: an equal-partition system plus
// the axis values that produced it.
type Point struct {
	// ID is the deterministic point label: the grid name plus one
	// segment per multi-valued axis, always including area and count
	// ("name-a800-k4", "name-5nm-a800-k4", ...). On a full point it is
	// System.Name, the head of the one string every chiplet and module
	// name of the system is sliced from, so retaining the ID keeps
	// those names alive (but not the System's placements or modules).
	ID string
	// Node, Scheme, AreaMM2, K and Quantity echo the axis values.
	// Scheme is the point's effective scheme: k = 1 points are
	// monolithic SoCs regardless of the grid's scheme axis.
	Node     string
	Scheme   packaging.Scheme
	AreaMM2  float64
	K        int
	Quantity float64
	// DieAreaMM2 is the per-die area of the equal partition (module
	// share plus D2D interface; the full module area for monolithic
	// points), bit-identical to System's per-chiplet DieArea. Filters
	// read it instead of walking placements, which is what lets a lean
	// generator skip building System entirely.
	DieAreaMM2 float64
	// System is the equal-partition system built from the axes. A lean
	// generator (see Generator.Lean) leaves it zero. Its placements
	// and modules are carved from chunks the generator shares among
	// consecutive points (see system.Chunks), with cap == len, so
	// appending to or writing through them never reaches another
	// point; retaining the System keeps its chunks, at most about
	// 36 KiB, alive.
	System system.System
}

// Grid declares the axes of a design-space sweep. Every combination of
// Nodes × Schemes × Quantities × AreasMM2 × Counts is one candidate
// point; expansion is lazy (see Points) and never allocates the cross
// product.
type Grid struct {
	// Name prefixes every generated point ID.
	Name string
	// Nodes are the process nodes to sweep.
	Nodes []string
	// Schemes are the multi-chip integration schemes. Count-1 points
	// are always built as monolithic SoCs.
	Schemes []packaging.Scheme
	// AreasMM2 are the total module areas to sweep.
	AreasMM2 []float64
	// Counts are the partition counts to sweep.
	Counts []int
	// Quantities are the production volumes to sweep.
	Quantities []float64
	// D2D sizes the die-to-die interface of multi-chip points; nil
	// means zero overhead.
	D2D dtod.Overhead
}

// Size returns the number of candidate points (before pruning).
func (g Grid) Size() int {
	return len(g.Nodes) * len(g.Schemes) * len(g.Quantities) * len(g.AreasMM2) * len(g.Counts)
}

// Validate checks the axes. A grid that passes validation generates
// every candidate point without build errors and never evaluates the
// same design twice: duplicate axis values are rejected (they would
// emit identical point IDs and crowd top-K lists).
func (g Grid) Validate() error {
	if len(g.Nodes) == 0 || len(g.Schemes) == 0 || len(g.AreasMM2) == 0 ||
		len(g.Counts) == 0 || len(g.Quantities) == 0 {
		return fmt.Errorf("sweep: grid %q has an empty axis (nodes/schemes/areas/counts/quantities)", g.Name)
	}
	for _, n := range g.Nodes {
		if n == "" {
			return fmt.Errorf("sweep: grid %q has an empty node", g.Name)
		}
	}
	for _, a := range g.AreasMM2 {
		if a <= 0 {
			return fmt.Errorf("sweep: grid %q has non-positive area %v", g.Name, a)
		}
		if !finite(a) {
			return fmt.Errorf("sweep: grid %q has non-finite area %v", g.Name, a)
		}
	}
	maxK := 0
	for _, k := range g.Counts {
		if k < 1 {
			return fmt.Errorf("sweep: grid %q has partition count %d < 1", g.Name, k)
		}
		if k > maxK {
			maxK = k
		}
	}
	for _, s := range g.Schemes {
		if s == packaging.SoC && maxK > 1 {
			return fmt.Errorf("sweep: grid %q sweeps scheme SoC with multi-chip counts", g.Name)
		}
	}
	for _, q := range g.Quantities {
		if q <= 0 {
			return fmt.Errorf("sweep: grid %q has non-positive quantity %v", g.Name, q)
		}
		if !finite(q) {
			return fmt.Errorf("sweep: grid %q has non-finite quantity %v", g.Name, q)
		}
	}
	// A fixed axis order, so a grid with several duplicated axes always
	// names the same one.
	for _, ax := range []struct {
		name string
		dup  bool
	}{
		{"nodes", hasDup(g.Nodes)},
		{"schemes", hasDup(g.Schemes)},
		{"areas", hasDup(g.AreasMM2)},
		{"counts", hasDup(g.Counts)},
		{"quantities", hasDup(g.Quantities)},
	} {
		if ax.dup {
			return fmt.Errorf("sweep: grid %q has duplicate %s entries", g.Name, ax.name)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// hasDup reports whether an axis repeats a value.
func hasDup[T comparable](xs []T) bool {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// MaxCount returns the largest entry of the Counts axis (0 when empty).
func (g Grid) MaxCount() int {
	maxK := 0
	for _, k := range g.Counts {
		if k > maxK {
			maxK = k
		}
	}
	return maxK
}

// PointID returns the deterministic label of the (node, scheme, area,
// k, quantity) combination: single-valued axes are elided so the IDs
// of simple grids stay short and stable ("name-a800-k4").
func (g Grid) PointID(node string, scheme packaging.Scheme, areaMM2 float64, k int, quantity float64) string {
	var buf [idBufSize]byte
	var q, a [floatBufSize]byte
	return string(g.appendID(buf[:0], pointLabel, node, scheme.String(),
		appendFloat(q[:0], quantity), appendFloat(a[:0], areaMM2), k))
}

// ComboID is PointID without the area and count segments — the label
// of one (node, scheme, quantity) axis combination, used by questions
// that sweep area or count internally.
func (g Grid) ComboID(node string, scheme packaging.Scheme, quantity float64) string {
	var buf [idBufSize]byte
	var q [floatBufSize]byte
	return string(g.appendID(buf[:0], comboLabel, node, scheme.String(), appendFloat(q[:0], quantity), nil, 0))
}

// AxisID is the quantity-free prefix of ComboID: the grid name plus a
// node segment when the node axis is multi-valued and a scheme segment
// when the scheme axis is. Quantity-independent questions (like the
// area-crossover search) label their requests with it.
func (g Grid) AxisID(node string, scheme packaging.Scheme) string {
	var buf [idBufSize]byte
	return string(g.appendID(buf[:0], axisLabel, node, scheme.String(), nil, nil, 0))
}

// labelDepth is how much of a label appendID writes.
type labelDepth int

const (
	axisLabel  labelDepth = iota // AxisID: name, node, scheme
	comboLabel                   // ComboID: … and quantity
	pointLabel                   // PointID: … and area and count
)

// idBufSize and floatBufSize size the stack buffers labels and their
// numbers are assembled in; a longer one spills to the heap and is
// otherwise unaffected.
const (
	idBufSize    = 96
	floatBufSize = 32
)

// appendID is the one label formatter behind AxisID, ComboID, PointID
// and Generator.Next. It appends to dst the grid name, a segment per
// multi-valued axis among node, scheme and (from comboLabel) quantity,
// and (at pointLabel) the area and count segments every point ID
// carries. Quantity and area arrive formatted by appendFloat, so the
// generator can format each axis value once and reuse it.
func (g *Grid) appendID(dst []byte, depth labelDepth, node, scheme string, quantity, area []byte, k int) []byte {
	dst = append(dst, g.Name...)
	if len(g.Nodes) > 1 {
		dst = append(dst, '-')
		dst = append(dst, node...)
	}
	if len(g.Schemes) > 1 {
		dst = append(dst, '-')
		dst = append(dst, scheme...)
	}
	if depth >= comboLabel && len(g.Quantities) > 1 {
		dst = append(dst, "-q"...)
		dst = append(dst, quantity...)
	}
	if depth >= pointLabel {
		dst = append(dst, "-a"...)
		dst = append(dst, area...)
		dst = append(dst, "-k"...)
		dst = strconv.AppendInt(dst, int64(k), 10)
	}
	return dst
}

// appendFloat formats an axis value for a label: 'g'/-1 is the
// shortest round-trip form, byte-identical to fmt's %g.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// Filter decides whether a generated point survives pre-evaluation
// pruning; false drops the point before any cost math runs.
type Filter func(Point) bool

// ReticleFit drops points whose per-die area exceeds the lithographic
// reticle — such dies cannot be manufactured, so evaluating their cost
// would only produce an infeasibility error downstream.
func ReticleFit() Filter {
	// Boolean-equivalent to len(System.Warnings()) == 0 without
	// allocating the warning strings: the only warning is a die
	// exceeding the reticle, every die of an equal partition has the
	// same area, and duplicate chiplets cannot change whether any die
	// exceeds it. Reads only Point.DieAreaMM2, so it is safe on lean
	// generators.
	return func(p Point) bool {
		return !(p.DieAreaMM2 > wafer.ReticleLimitMM2)
	}
}

// InterposerFit drops interposer-scheme points whose estimated
// interposer area exceeds the manufacturable limit, using the same
// sizing rule as the packaging cost path (Params.InterposerFits).
// Points on substrate-only schemes always pass.
func InterposerFit(params packaging.Params) Filter {
	// Total die area folded the way System.TotalDieArea folds an equal
	// partition — k in-order adds of the per-die area — so the verdict
	// is bit-identical to the System-walking form. Reads only scalar
	// fields, so it is safe on lean generators.
	return func(p Point) bool {
		if !p.Scheme.HasInterposer() {
			return true
		}
		var total float64
		for i := 0; i < p.K; i++ {
			total += p.DieAreaMM2
		}
		return params.InterposerFits(total)
	}
}

// Stats counts a generator's activity so far. A sharded generator
// (see Generator.Shard) accounts only the candidates its stripe owns —
// every candidate, including each skipped monolithic twin, belongs to
// exactly one shard — so per-shard stats of a full partition sum to
// the unsharded generator's stats (see Merge).
type Stats struct {
	// Generated is the number of points returned by Next.
	Generated int
	// Pruned is the number of candidates dropped by filters or
	// unbuildable axis combinations.
	Pruned int
	// Deduped is the number of scheme-duplicate monolithic (k=1)
	// candidates skipped on multi-scheme grids — identical designs,
	// not infeasible ones.
	Deduped int
	// BoundPruned is the number of candidates dropped by bound filters
	// (see Generator.Bound): points provably worse than an incumbent,
	// counted apart from feasibility pruning so adaptive-search savings
	// stay distinguishable from infeasibility.
	BoundPruned int
}

// Merge adds another generator's counters to this one — the whole-grid
// totals of a sweep fanned out across shards.
func (s *Stats) Merge(o Stats) {
	s.Generated += o.Generated
	s.Pruned += o.Pruned
	s.Deduped += o.Deduped
	s.BoundPruned += o.BoundPruned
}

// Odometer walks the cross product of axis lengths lazily, last axis
// fastest — the shared traversal order of the streamed and the
// materialized sweep paths. Next returns the current index tuple and
// advances; the boolean is false once the product is exhausted (or
// any axis is empty).
type Odometer struct {
	lens []int
	idx  []int
	done bool
}

// NewOdometer builds an iterator over the given axis lengths.
func NewOdometer(lens ...int) *Odometer {
	o := &Odometer{lens: lens, idx: make([]int, len(lens))}
	for _, n := range lens {
		if n <= 0 {
			o.done = true
		}
	}
	return o
}

// Next returns the next index tuple. The returned slice is freshly
// allocated and safe to retain.
func (o *Odometer) Next() ([]int, bool) {
	cur, ok := o.current()
	if !ok {
		return nil, false
	}
	out := make([]int, len(cur))
	copy(out, cur)
	o.advance()
	return out, true
}

// current returns the live index tuple without copying — read it
// before calling advance. Package-internal: the Generator hot path
// must not allocate per candidate.
func (o *Odometer) current() ([]int, bool) {
	if o.done {
		return nil, false
	}
	return o.idx, true
}

// advance steps to the next tuple, last axis fastest.
func (o *Odometer) advance() {
	for i := len(o.idx) - 1; i >= 0; i-- {
		o.idx[i]++
		if o.idx[i] < o.lens[i] {
			return
		}
		o.idx[i] = 0
	}
	o.done = true
}

// size returns the cross-product cardinality (0 when any axis is
// empty).
func (o *Odometer) size() int {
	n := 1
	for _, l := range o.lens {
		if l <= 0 {
			return 0
		}
		n *= l
	}
	return n
}

// Seek positions the odometer at the n-th tuple of the cross product
// (0-based, odometer order) in O(axes) by mixed-radix decomposition —
// the restore path of a checkpointed walk never replays the skipped
// prefix. n at or past the end exhausts the odometer; negative n
// panics (validate cursors at the API boundary, not here).
func (o *Odometer) Seek(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sweep: seek to negative position %d", n))
	}
	if n >= o.size() {
		o.done = true
		return
	}
	o.done = false
	for i := len(o.lens) - 1; i >= 0; i-- {
		o.idx[i] = n % o.lens[i]
		n /= o.lens[i]
	}
}

// Generator lazily walks a grid's cross product, skipping pruned
// points. It is a single-consumer pull iterator: call Next until the
// second return is false. A Generator is not safe for concurrent use;
// fan-out happens downstream (Session.Stream pumps one generator into
// a bounded channel).
type Generator struct {
	grid    Grid
	filters []Filter
	bounds  []Filter
	sel     func(cand int) bool
	d2d     dtod.Overhead
	abort   func() bool
	// odo walks (node, scheme, quantity, area, count), count fastest —
	// the traversal order of the materialized v2 scenario path, so
	// streamed and batched results correspond.
	odo   *Odometer
	stats Stats
	// cand numbers the candidates in odometer order; with shardCount
	// ≥ 1 only candidates whose number ≡ shardIndex (mod shardCount)
	// are owned by this generator (see Shard). lastCand is the number
	// of the candidate behind the most recent point.
	cand       int
	lastCand   int
	shardIndex int
	shardCount int
	lean       bool
	// labels memoizes formatted axis values for point IDs: quantity i
	// at i, area i at len(Quantities)+i, each formatted into labelBuf
	// on first use (nil until then). A walk formats every value at most
	// once, and allocates for it only when labelBuf grows.
	labels   [][]byte
	labelBuf []byte
	// chunks carves full points' placements and modules (see
	// system.Chunks); its first chunks hold one innermost run.
	chunks system.Chunks
}

// Points returns a fresh lazy iterator over the grid, applying the
// filters to every candidate. Multiple calls return independent
// iterators.
func (g Grid) Points(filters ...Filter) *Generator {
	d2d := g.D2D
	if d2d == nil {
		d2d = dtod.None{}
	}
	odo := NewOdometer(len(g.Nodes), len(g.Schemes), len(g.Quantities), len(g.AreasMM2), len(g.Counts))
	return &Generator{grid: g, filters: filters, d2d: d2d, odo: odo,
		labels: make([][]byte, len(g.Quantities)+len(g.AreasMM2)),
		chunks: system.NewChunks(runPlacements(g.Counts))}
}

// runPlacements returns how many placements one innermost run of the
// walk builds, Σ Counts, saturating rather than overflowing.
func runPlacements(counts []int) int {
	n := 0
	for _, k := range counts {
		if k > 0 {
			n = min(n, math.MaxInt-k) + k
		}
	}
	return n
}

// Grid returns the grid this generator walks.
func (it *Generator) Grid() Grid { return it.grid }

// Lean switches the generator to scalar-only generation: Next leaves
// Point.System zero instead of building the equal-partition system.
// Either way a point costs one allocation, its ID string; a full
// point's ID string also holds every chiplet and module name of its
// system, whose placements and modules are carved from chunks shared
// with dozens of neighbouring points. The walk is otherwise
// identical — the same candidates survive, in the
// same order, with the same Stats, because the unbuildable-combination
// checks PartitionEqual would have made are replicated on the scalar
// axes. The caller asserts that every installed filter and bound reads
// only scalar Point fields (the built-in ReticleFit and InterposerFit
// qualify); a filter that walks Point.System would see an empty
// system. It returns the generator for chaining and must be called
// before the first Next.
func (it *Generator) Lean() *Generator {
	it.lean = true
	return it
}

// IsLean reports whether Lean was applied.
func (it *Generator) IsLean() bool { return it.lean }

// Shard restricts the generator to the i-th of n stripes of the
// candidate index space: candidate c (in odometer order, before any
// pruning or dedup) belongs to shard c mod n. The n shards of a grid
// are pairwise disjoint and their union is exactly the unsharded
// walk, each shard preserves odometer order, and every candidate —
// including each pruned point and each skipped monolithic twin — is
// accounted in exactly one shard's Stats, so per-shard stats sum to
// the unsharded totals. Skipping a foreign candidate costs one
// odometer step and no system construction. Shard(0, 1) is the
// identity. It returns the generator for chaining and must be called
// before the first Next; i and n outside 0 ≤ i < n panic (validate
// shard specs at the API boundary, not here).
func (it *Generator) Shard(i, n int) *Generator {
	if n < 1 || i < 0 || i >= n {
		panic(fmt.Sprintf("sweep: invalid shard %d of %d", i, n))
	}
	it.shardIndex, it.shardCount = i, n
	return it
}

// Select restricts the generator to the candidates f selects, by
// global odometer-order candidate number — the numbering shards and
// cursors already use. Unselected candidates are stepped past exactly
// like a foreign shard's: one odometer advance, no point construction,
// no stats. Adaptive search uses this to walk one stage's sub-grid (or
// sample stripe) of a base grid while keeping the shard-independent
// candidate numbering, so stage cursors, shard specs and checkpoints
// stay directly comparable with exhaustive walks. It returns the
// generator for chaining and must be called before the first Next.
func (it *Generator) Select(f func(cand int) bool) *Generator {
	it.sel = f
	return it
}

// Bound installs a bound filter: a pre-evaluation predicate that drops
// candidates provably unable to improve on an incumbent (false drops).
// Bound filters run after the feasibility filters and count into
// Stats.BoundPruned rather than Stats.Pruned — a bound-pruned point is
// buildable and feasible, just not competitive. It returns the
// generator for chaining.
func (it *Generator) Bound(f Filter) *Generator {
	it.bounds = append(it.bounds, f)
	return it
}

// AbortWhen installs an early-exit hook checked once per candidate
// (not per surviving point): when f returns true, Next returns false
// for good. Long pruning runs between surviving points stay
// cancelable this way. It returns the generator for chaining.
func (it *Generator) AbortWhen(f func() bool) *Generator {
	it.abort = f
	return it
}

// Next returns the next surviving point. The boolean is false when the
// grid is exhausted (or the AbortWhen hook fired).
func (it *Generator) Next() (Point, bool) {
	for {
		idx, ok := it.odo.current()
		if !ok {
			return Point{}, false
		}
		if it.abort != nil && it.abort() {
			return Point{}, false
		}
		cand := it.cand
		it.cand++
		if it.shardCount > 1 && cand%it.shardCount != it.shardIndex {
			// A foreign stripe's candidate: step past it without
			// building the point or touching this shard's stats.
			it.odo.advance()
			continue
		}
		if it.sel != nil && !it.sel(cand) {
			// Not part of this walk's selection (see Select): skip as
			// cheaply as a foreign shard's candidate, uncounted.
			it.odo.advance()
			continue
		}
		// idx is the odometer's live slice: copy out everything needed
		// before advance mutates it.
		g := &it.grid
		node := g.Nodes[idx[0]]
		schemeIdx := idx[1]
		scheme := g.Schemes[schemeIdx]
		qi, ai := idx[2], idx[3]
		quantity := g.Quantities[qi]
		area := g.AreasMM2[ai]
		k := g.Counts[idx[4]]
		it.odo.advance()

		sch := scheme
		if k == 1 {
			sch = packaging.SoC
			// The monolithic point is scheme-independent: on a
			// multi-scheme grid emit it once (labelled SoC) instead of
			// once per scheme — duplicates would waste evaluations and
			// crowd top-K lists.
			if schemeIdx > 0 {
				it.stats.Deduped++
				continue
			}
		}
		p := Point{Node: node, Scheme: sch, AreaMM2: area, K: k, Quantity: quantity}
		if it.lean {
			// The scalar image of PartitionEqual's unbuildable-
			// combination checks: same conditions, same Pruned
			// accounting, no system construction.
			if k < 1 || area <= 0 || (sch == packaging.SoC && k > 1) {
				it.stats.Pruned++
				continue
			}
			p.ID = it.pointID(node, sch, qi, ai, k)
		} else {
			// The ID is assembled on the stack and copied once, into the
			// head of the string every name of the system is sliced from.
			var buf [idBufSize]byte
			sys, err := it.chunks.PartitionEqual(it.appendPointID(buf[:0], node, sch, qi, ai, k),
				node, area, k, sch, it.d2d, quantity)
			if err != nil {
				// Unbuildable combination (e.g. an SoC scheme asked to
				// host k > 1): prune rather than poison the stream.
				it.stats.Pruned++
				continue
			}
			p.ID, p.System = sys.Name, sys
		}
		// Per-die area from the scalars, with the same expressions the
		// partition builder uses (k = 1 points are monolithic: full
		// module area, no D2D), so the value is bit-identical to the
		// System-derived per-chiplet DieArea.
		p.DieAreaMM2 = area
		if k > 1 {
			per := area / float64(k)
			p.DieAreaMM2 = per + it.d2d.Area(per)
		}
		if !it.keep(p) {
			it.stats.Pruned++
			continue
		}
		if !it.aboveBound(p) {
			it.stats.BoundPruned++
			continue
		}
		it.stats.Generated++
		it.lastCand = cand
		return p, true
	}
}

// pointID is Grid.PointID for the point at quantity index qi and area
// index ai, assembled in a stack buffer: one allocation, the ID string
// itself.
func (it *Generator) pointID(node string, scheme packaging.Scheme, qi, ai, k int) string {
	var buf [idBufSize]byte
	return string(it.appendPointID(buf[:0], node, scheme, qi, ai, k))
}

// appendPointID appends the bytes of pointID's label, built from
// memoized axis labels, to dst.
func (it *Generator) appendPointID(dst []byte, node string, scheme packaging.Scheme, qi, ai, k int) []byte {
	g := &it.grid
	return g.appendID(dst, pointLabel, node, scheme.String(),
		it.label(qi, g.Quantities[qi]), it.label(len(g.Quantities)+ai, g.AreasMM2[ai]), k)
}

// label returns the memoized label of axis value v at labels index i.
// When appending moves labelBuf, earlier labels keep the old array,
// whose bytes are never rewritten.
func (it *Generator) label(i int, v float64) []byte {
	if it.labels[i] == nil {
		start := len(it.labelBuf)
		it.labelBuf = appendFloat(it.labelBuf, v)
		it.labels[i] = it.labelBuf[start:len(it.labelBuf):len(it.labelBuf)]
	}
	return it.labels[i]
}

// NextSlab fills dst with the next consecutive surviving points and
// returns how many it produced; 0 means the grid is exhausted (or the
// AbortWhen hook fired). A slab is exactly the run Next would have
// produced point by point, so slab and point consumers see identical
// sequences. Because the odometer spins its innermost axis (count)
// fastest, a slab is a run of near-neighbours in the design space —
// the access pattern the evaluator's partial caches are keyed for.
func (it *Generator) NextSlab(dst []Point) int {
	n := 0
	for n < len(dst) {
		p, ok := it.Next()
		if !ok {
			break
		}
		dst[n] = p
		n++
	}
	return n
}

// LastCandidate returns the odometer-order candidate number of the
// point most recently returned by Next — the same numbering whatever
// the shard spec, so positions compare across shards (the merge layer
// uses it to find the globally first failing point).
func (it *Generator) LastCandidate() int { return it.lastCand }

// Cursor is the serializable resume point of a generator walk: the
// next candidate to examine (odometer order, shard-independent
// numbering) plus the accounting accumulated so far. A walk restored
// from a cursor continues exactly where the snapshotted one stood —
// same points, same order, same final Stats — which is what makes a
// checkpointed sweep's output byte-identical to an uninterrupted run.
type Cursor struct {
	// Candidate is the odometer position of the next candidate.
	Candidate int
	// Stats is the generator's accounting up to Candidate.
	Stats Stats
}

// Cursor snapshots the walk between two Next calls.
func (it *Generator) Cursor() Cursor {
	return Cursor{Candidate: it.cand, Stats: it.stats}
}

// Restore fast-forwards a fresh generator to a cursor taken from an
// equivalent walk (same grid, filters and shard spec) without
// replaying the skipped prefix: the odometer seeks directly and the
// stats are adopted wholesale. It must be called before the first
// Next and returns the generator for chaining.
func (it *Generator) Restore(cur Cursor) (*Generator, error) {
	if it.cand != 0 || it.stats != (Stats{}) {
		return nil, fmt.Errorf("sweep: restore after Next on grid %q", it.grid.Name)
	}
	if cur.Candidate < 0 || cur.Candidate > it.grid.Size() {
		return nil, fmt.Errorf("sweep: cursor candidate %d outside grid %q (0..%d candidates)",
			cur.Candidate, it.grid.Name, it.grid.Size())
	}
	if cur.Stats.Generated < 0 || cur.Stats.Pruned < 0 || cur.Stats.Deduped < 0 || cur.Stats.BoundPruned < 0 ||
		cur.Stats.Generated+cur.Stats.Pruned+cur.Stats.Deduped+cur.Stats.BoundPruned > cur.Candidate {
		return nil, fmt.Errorf("sweep: cursor stats %+v inconsistent with candidate %d", cur.Stats, cur.Candidate)
	}
	it.cand = cur.Candidate
	it.stats = cur.Stats
	it.odo.Seek(cur.Candidate)
	return it, nil
}

// Stats reports how many points have been generated and pruned so far.
func (it *Generator) Stats() Stats { return it.stats }

func (it *Generator) keep(p Point) bool {
	for _, f := range it.filters {
		if !f(p) {
			return false
		}
	}
	return true
}

func (it *Generator) aboveBound(p Point) bool {
	for _, f := range it.bounds {
		if !f(p) {
			return false
		}
	}
	return true
}

// MaxAxisLen is the most values AreaRange and CountRange expand a
// range into; a longer range is an error, not a huge allocation.
const MaxAxisLen = 1 << 20

// AreaRange expands an inclusive [lo, hi] module-area range with the
// given step into an explicit axis. The bounds and the step must be
// finite, the step positive, the range not inverted, and the axis at
// most MaxAxisLen values whose spacing survives rounding: every value
// is finite and larger than the one before.
func AreaRange(loMM2, hiMM2, stepMM2 float64) ([]float64, error) {
	if !finite(loMM2) || !finite(hiMM2) || !finite(stepMM2) {
		return nil, fmt.Errorf("sweep: area range [%v, %v] step %v is not finite", loMM2, hiMM2, stepMM2)
	}
	if loMM2 <= 0 || hiMM2 < loMM2 {
		return nil, fmt.Errorf("sweep: inverted or non-positive area range [%v, %v]", loMM2, hiMM2)
	}
	if stepMM2 <= 0 {
		return nil, fmt.Errorf("sweep: area range step %v must be positive", stepMM2)
	}
	// Index-based expansion: accumulating `a += step` drifts over long
	// ranges and can gain or lose the final point. The index count is
	// bounded as a float, before the conversion to int could overflow
	// (a quotient of finite values can still be +Inf).
	last := math.Floor((hiMM2-loMM2)/stepMM2 + 1e-9)
	if !(last < MaxAxisLen) {
		return nil, fmt.Errorf("sweep: area range [%v, %v] step %v has more than %d values",
			loMM2, hiMM2, stepMM2, MaxAxisLen)
	}
	out := make([]float64, int(last)+1)
	for i := range out {
		out[i] = loMM2 + float64(i)*stepMM2
		if i == 0 {
			continue
		}
		if out[i] > math.MaxFloat64 {
			return nil, fmt.Errorf("sweep: area range [%v, %v] step %v overflows at value %d",
				loMM2, hiMM2, stepMM2, i)
		}
		if !(out[i] > out[i-1]) {
			return nil, fmt.Errorf("sweep: area range [%v, %v] step %v is finer than the spacing of float64 values: value %d repeats value %d",
				loMM2, hiMM2, stepMM2, i, i-1)
		}
	}
	return out, nil
}

// CountRange expands an inclusive [lo, hi] partition-count range into
// an explicit axis of at most MaxAxisLen values.
func CountRange(lo, hi int) ([]int, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("sweep: inverted or sub-1 count range [%d, %d]", lo, hi)
	}
	// 1 ≤ lo ≤ hi, so hi-lo cannot overflow.
	if hi-lo >= MaxAxisLen {
		return nil, fmt.Errorf("sweep: count range [%d, %d] has more than %d values", lo, hi, MaxAxisLen)
	}
	// Indexed, so hi = math.MaxInt cannot wrap the loop counter.
	out := make([]int, hi-lo+1)
	for i := range out {
		out[i] = lo + i
	}
	return out, nil
}
