package sweep

import (
	"fmt"
	"slices"
	"sort"
)

// TopK is an online selector keeping the k lowest-cost items seen, in
// O(k) memory: a bounded max-heap where the most expensive retained
// item sits at the root, evicted as soon as something cheaper arrives.
//
// With a TieBreak key installed the retained set and Sorted order are
// a pure function of the observed multiset — independent of arrival
// order and therefore of how a sweep was sharded (see Merge).
type TopK[T any] struct {
	k    int
	cost func(T) float64
	key  func(T) string
	heap []topEntry[T] // max-heap under the (cost, key) order
	seen int
}

type topEntry[T any] struct {
	cost float64
	key  string
	item T
}

// NewTopK builds a selector for the k items minimizing cost. k < 1 is
// raised to 1.
func NewTopK[T any](k int, cost func(T) float64) *TopK[T] {
	if k < 1 {
		k = 1
	}
	return &TopK[T]{k: k, cost: cost, heap: make([]topEntry[T], 0, k)}
}

// TieBreak installs a deterministic tie-breaking key: items of equal
// cost are ordered by ascending key, so the retained set and Sorted()
// output no longer depend on arrival order. Keys must be unique across
// the observed items (point and result IDs are). Without a key, ties
// at the retention boundary keep the earlier arrival. It returns the
// selector for chaining and must be called before the first Observe.
func (t *TopK[T]) TieBreak(key func(T) string) *TopK[T] {
	t.key = key
	return t
}

// entry builds the heap entry of one item of the given cost, computing
// the tie-break key once.
func (t *TopK[T]) entry(cost float64, x T) topEntry[T] {
	e := topEntry[T]{cost: cost, item: x}
	if t.key != nil {
		e.key = t.key(x)
	}
	return e
}

// less orders entries by cost, then by the tie-break key.
func less[T any](a, b topEntry[T]) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.key < b.key
}

// Observe offers one item to the selector. Once the selector is full,
// an item strictly dearer than the root is dropped before its entry
// is built: offer would reject it whatever its tie-break key.
func (t *TopK[T]) Observe(x T) {
	t.seen++
	c := t.cost(x)
	if len(t.heap) == t.k && t.heap[0].cost < c {
		return
	}
	t.offer(t.entry(c, x))
}

// offer inserts one entry, evicting the current maximum when full.
func (t *TopK[T]) offer(e topEntry[T]) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if !less(e, t.heap[0]) {
		return
	}
	t.heap[0] = e
	t.siftDown(0)
}

// Merge folds another selector into this one, as if every item behind
// o had been observed here. Both selectors should share the cost and
// tie-break functions; o remains usable. With tie-breaking installed,
// merging per-shard selectors of any partition of a sweep yields
// exactly the unsharded selector's retained set.
func (t *TopK[T]) Merge(o *TopK[T]) {
	t.seen += o.seen
	for _, e := range o.heap {
		// Re-enter through entry() so this selector's own functions
		// decide cost and key even if o was configured differently.
		t.offer(t.entry(t.cost(e.item), e.item))
	}
}

// Seen returns how many items have been observed.
func (t *TopK[T]) Seen() int { return t.seen }

// Bound returns the cost of the worst retained item once the selector
// is full — the running admission threshold: an item whose cost is
// strictly above it can never enter the retained set, whatever its
// tie-break key. The boolean is false while fewer than k items have
// been retained (no threshold yet).
func (t *TopK[T]) Bound() (float64, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].cost, true
}

// TopKState is the serializable snapshot of a TopK selector: the
// retention bound, the observation count, and the retained items in
// Sorted order — a canonical form, so equal selectors snapshot to
// equal states whatever their internal heap layout.
type TopKState[T any] struct {
	K     int `json:"k"`
	Seen  int `json:"seen"`
	Items []T `json:"items,omitempty"`
}

// State snapshots the selector; the selector remains usable and the
// snapshot does not alias its heap.
func (t *TopK[T]) State() TopKState[T] {
	return TopKState[T]{K: t.k, Seen: t.seen, Items: t.Sorted()}
}

// SetState restores a snapshot into this selector, replacing whatever
// it held. The selector must have been built with the same cost and
// tie-break functions as the snapshotted one; the restored selector
// then continues exactly where the snapshot stood. Inconsistent
// states (decoded from a corrupt checkpoint, say) are rejected.
func (t *TopK[T]) SetState(s TopKState[T]) error {
	if s.K < 1 {
		return fmt.Errorf("sweep: top-k state has bound %d < 1", s.K)
	}
	if len(s.Items) > s.K {
		return fmt.Errorf("sweep: top-k state retains %d items over its bound %d", len(s.Items), s.K)
	}
	if s.Seen < len(s.Items) {
		return fmt.Errorf("sweep: top-k state saw %d items but retains %d", s.Seen, len(s.Items))
	}
	t.k = s.K
	t.heap = t.heap[:0]
	for _, x := range s.Items {
		t.offer(t.entry(t.cost(x), x))
	}
	t.seen = s.Seen
	return nil
}

// Len returns how many items are currently retained (≤ k).
func (t *TopK[T]) Len() int { return len(t.heap) }

// Sorted returns the retained items in ascending cost order (ties by
// the tie-break key). The selector remains usable afterwards.
func (t *TopK[T]) Sorted() []T {
	entries := make([]topEntry[T], len(t.heap))
	copy(entries, t.heap)
	sort.Slice(entries, func(i, j int) bool { return less(entries[i], entries[j]) })
	out := make([]T, len(entries))
	for i, e := range entries {
		out[i] = e.item
	}
	return out
}

func (t *TopK[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(t.heap[parent], t.heap[i]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK[T]) siftDown(i int) {
	for {
		largest := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(t.heap) && less(t.heap[largest], t.heap[c]) {
				largest = c
			}
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// Pareto maintains the non-dominated front of a two-objective
// minimization online. Memory is O(front size): dominated items are
// discarded on arrival, and arrivals that dominate retained items
// evict them.
//
// The front of distinct objective pairs is inherently order-
// independent; installing a TieBreak key makes exact-duplicate pairs
// deterministic too, so sharded and unsharded walks agree (see Merge).
type Pareto[T any] struct {
	objectives func(T) (x, y float64)
	key        func(T) string
	front      []paretoEntry[T] // ascending x, strictly descending y
	seen       int
}

type paretoEntry[T any] struct {
	x, y float64
	key  string
	item T
}

// NewPareto builds a front for minimizing both objectives.
func NewPareto[T any](objectives func(T) (x, y float64)) *Pareto[T] {
	return &Pareto[T]{objectives: objectives}
}

// TieBreak installs a deterministic key for exact objective ties: when
// two items share both objective values, the one with the smaller key
// is retained regardless of arrival order. Without a key the first
// arrival wins. It returns the front for chaining and must be called
// before the first Observe.
func (p *Pareto[T]) TieBreak(key func(T) string) *Pareto[T] {
	p.key = key
	return p
}

// Observe offers one item to the front.
func (p *Pareto[T]) Observe(item T) {
	p.seen++
	p.observe(item)
}

// observe inserts without counting, shared by Observe and Merge. The
// tie-break key is built only for an exact (x, y) tie or an insertion:
// a dominated arrival never needs one.
func (p *Pareto[T]) observe(item T) {
	x, y := p.objectives(item)
	// Invariant: strictly ascending x, strictly descending y. i is the
	// insertion position — the first entry with x ≥ the newcomer's.
	i := sort.Search(len(p.front), func(j int) bool { return p.front[j].x >= x })
	// Entries left of i have strictly smaller x; the nearest one holds
	// the smallest y among them, so it alone decides domination from
	// that side. An equal-x entry (at most one, at position i) with
	// y ≤ y also dominates — except an exact (x, y) duplicate, which
	// the tie-break key may overturn.
	if i > 0 && p.front[i-1].y <= y {
		return
	}
	if i < len(p.front) && p.front[i].x == x && p.front[i].y <= y {
		if p.front[i].y == y && p.key != nil {
			if key := p.key(item); key < p.front[i].key {
				p.front[i] = paretoEntry[T]{x: x, y: y, key: key, item: item}
			}
		}
		return
	}
	// Evict the entries the newcomer dominates: a contiguous run from
	// i (all have x ≥ x) while their y is no better.
	j := i
	for j < len(p.front) && p.front[j].y >= y {
		j++
	}
	var key string
	if p.key != nil {
		key = p.key(item)
	}
	p.front = slices.Replace(p.front, i, j, paretoEntry[T]{x: x, y: y, key: key, item: item})
}

// Merge folds another front into this one, as if every item behind o
// had been observed here. Both fronts should share the objective and
// tie-break functions; o remains usable. The union of per-shard fronts
// contains the whole sweep's front, so merging shard fronts of any
// partition reproduces the unsharded front exactly.
func (p *Pareto[T]) Merge(o *Pareto[T]) {
	p.seen += o.seen
	for _, e := range o.front {
		p.observe(e.item)
	}
}

// Seen returns how many items have been observed.
func (p *Pareto[T]) Seen() int { return p.seen }

// ParetoState is the serializable snapshot of a Pareto front: the
// observation count and the non-dominated set ascending in the first
// objective — the canonical Front order.
type ParetoState[T any] struct {
	Seen  int `json:"seen"`
	Front []T `json:"front,omitempty"`
}

// State snapshots the front; the front remains usable and the
// snapshot does not alias its storage.
func (p *Pareto[T]) State() ParetoState[T] {
	return ParetoState[T]{Seen: p.seen, Front: p.Front()}
}

// SetState restores a snapshot into this front, replacing whatever it
// held. The front must have been built with the same objective and
// tie-break functions as the snapshotted one. Items that dominate each
// other cannot both sit on a real front, so re-observing the snapshot
// silently discards any dominated entries a corrupted state smuggled
// in; the seen counter is validated against the restored front size.
// On error the receiver is unchanged, like TopK.SetState.
func (p *Pareto[T]) SetState(s ParetoState[T]) error {
	// Rebuild into a scratch front first: validation needs the
	// re-pruned size, and a rejected state must not corrupt a live
	// aggregator.
	fresh := Pareto[T]{objectives: p.objectives, key: p.key}
	for _, x := range s.Front {
		fresh.observe(x)
	}
	if s.Seen < len(fresh.front) {
		return fmt.Errorf("sweep: pareto state saw %d items but fronts %d", s.Seen, len(fresh.front))
	}
	p.front = fresh.front
	p.seen = s.Seen
	return nil
}

// Front returns the current non-dominated set, ascending in the first
// objective. The aggregator remains usable afterwards.
func (p *Pareto[T]) Front() []T {
	out := make([]T, len(p.front))
	for i, e := range p.front {
		out[i] = e.item
	}
	return out
}

// Summary accumulates count / min / max / sum of a labelled scalar
// stream in O(1) memory.
type Summary struct {
	// Count is the number of observations.
	Count int
	// Min and Max are the extreme values; MinID and MaxID label them.
	Min, Max     float64
	MinID, MaxID string
	// Sum accumulates for Mean.
	Sum float64
}

// Observe records one labelled value. Exact value ties keep the
// smaller label, so Min/Max and their IDs are independent of
// observation order (and of how a sweep was sharded).
func (s *Summary) Observe(id string, v float64) {
	if s.Count == 0 || v < s.Min || (v == s.Min && id < s.MinID) {
		s.Min, s.MinID = v, id
	}
	if s.Count == 0 || v > s.Max || (v == s.Max && id < s.MaxID) {
		s.Max, s.MaxID = v, id
	}
	s.Count++
	s.Sum += v
}

// Mean returns the running average (0 before any observation).
func (s *Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Merge folds another summary into this one, as if every observation
// behind o had been observed here. Count, Min, Max and their labels
// merge exactly; Sum (and therefore Mean) may differ from the
// single-stream value by floating-point reassociation error.
func (s *Summary) Merge(o Summary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min || (o.Min == s.Min && o.MinID < s.MinID) {
		s.Min, s.MinID = o.Min, o.MinID
	}
	if s.Count == 0 || o.Max > s.Max || (o.Max == s.Max && o.MaxID < s.MaxID) {
		s.Max, s.MaxID = o.Max, o.MaxID
	}
	s.Count += o.Count
	s.Sum += o.Sum
}
