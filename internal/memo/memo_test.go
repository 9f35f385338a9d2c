package memo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"chipletactuary/internal/race"
)

func intHash(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func TestGetPut(t *testing.T) {
	c := New[int, string](64, intHash)
	var v string
	if c.Get(1, &v) {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(1, "one")
	if ok := c.Get(1, &v); !ok || v != "one" {
		t.Fatalf("got %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFirstWriteWins(t *testing.T) {
	c := New[int, string](64, intHash)
	c.Put(7, "first")
	c.Put(7, "second")
	var v string
	if c.Peek(7, &v); v != "first" {
		t.Fatalf("duplicate put replaced value: %q", v)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate put grew the cache: %+v", st)
	}
}

// TestBound verifies FIFO eviction holds the entry count near the
// requested bound (rounded up to the shard count) and that the most
// recent keys survive within each shard.
func TestBound(t *testing.T) {
	const max = 32
	c := New[int, int](max, intHash)
	for i := 0; i < 10*max; i++ {
		c.Put(i, i)
	}
	st := c.Stats()
	perShard := (max + 15) / 16
	if st.Entries > perShard*16 {
		t.Fatalf("cache exceeded bound: %+v", st)
	}
	// The very last key inserted must still be present.
	var v int
	if !c.Peek(10*max-1, &v) {
		t.Fatal("most recent key was evicted")
	}
}

func TestNilCacheDisabled(t *testing.T) {
	var c *Cache[int, int]
	if c != New[int, int](0, intHash) {
		t.Fatal("New with max<1 should return nil")
	}
	c.Put(1, 1) // must not panic
	var v int
	if c.Get(1, &v) {
		t.Fatal("nil cache returned a hit")
	}
	c.Note(3, 4)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestNote(t *testing.T) {
	c := New[int, int](16, intHash)
	c.Note(5, 3)
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrent hammers one cache from many goroutines; run with
// -race to check the locking.
func TestConcurrent(t *testing.T) {
	c := New[int, string](256, intHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := i % 100
				var v string
				if c.Get(k, &v) {
					if want := fmt.Sprint(k); v != want {
						t.Errorf("key %d: got %q want %q", k, v, want)
					}
					continue
				}
				c.Put(k, fmt.Sprint(k))
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses: %+v", st)
	}
}

// refCache is the map-backed shard design the ring-and-index table
// replaced, kept as the reference model for the differential test:
// same shard choice (the top bits of the mixed hash), FIFO order and
// first-write-wins, with a Go map per shard.
type refCache[K comparable, V any] struct {
	shards [shardCount]struct {
		m     map[K]V
		order []K
		next  int
	}
	perMax       int
	hash         func(K) uint64
	hits, misses int64
}

func newRef[K comparable, V any](max int, hash func(K) uint64) *refCache[K, V] {
	per := (max + shardCount - 1) / shardCount
	c := &refCache[K, V]{perMax: per, hash: hash}
	for i := range c.shards {
		c.shards[i].m = make(map[K]V, per)
	}
	return c
}

func (c *refCache[K, V]) Peek(k K) (V, bool) {
	v, ok := c.shards[shardOf(mix(c.hash(k)))].m[k]
	return v, ok
}

func (c *refCache[K, V]) Get(k K) (V, bool) {
	v, ok := c.Peek(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *refCache[K, V]) Put(k K, v V) {
	sh := &c.shards[shardOf(mix(c.hash(k)))]
	if _, dup := sh.m[k]; dup {
		return
	}
	if len(sh.order) < c.perMax {
		sh.order = append(sh.order, k)
	} else {
		delete(sh.m, sh.order[sh.next])
		sh.order[sh.next] = k
		sh.next = (sh.next + 1) % c.perMax
	}
	sh.m[k] = v
}

func (c *refCache[K, V]) Stats() Stats {
	st := Stats{Hits: c.hits, Misses: c.misses}
	for i := range c.shards {
		st.Entries += len(c.shards[i].m)
	}
	return st
}

// checkIndex verifies the table's invariants: the ring holds at most
// the shard's bound, the index is a power of two at least twice the
// ring, and every filled ring slot is indexed exactly once, by a word
// carrying its tag, reachable from its home position without crossing
// a free word.
func checkIndex[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	for s := range c.shards {
		sh := &c.shards[s]
		if slots := len(sh.index); slots < 2 || slots&(slots-1) != 0 || slots < 2*len(sh.ring) ||
			sh.mask != uint64(slots-1) || len(sh.ring) > c.perMax || sh.n > len(sh.ring) {
			t.Fatalf("shard %d: %d index words (mask %#x) for a ring of %d holding %d (bound %d)",
				s, slots, sh.mask, len(sh.ring), sh.n, c.perMax)
		}
		seen := make([]bool, len(sh.ring))
		words := 0
		for j, w := range sh.index {
			if w == 0 {
				continue
			}
			words++
			slot := int(uint32(w)) - 1
			if slot < 0 || slot >= sh.n || seen[slot] {
				t.Fatalf("shard %d word %d: bad or repeated slot %d (n=%d)", s, j, slot, sh.n)
			}
			seen[slot] = true
			h := mix(c.hash(sh.ring[slot].key))
			if w>>32 != h&0xffffffff {
				t.Fatalf("shard %d word %d: tag mismatch", s, j)
			}
			for i := h & sh.mask; i != uint64(j); i = (i + 1) & sh.mask {
				if sh.index[i] == 0 {
					t.Fatalf("shard %d: free word %d inside the probe run of slot %d", s, i, slot)
				}
			}
		}
		if words != sh.n {
			t.Fatalf("shard %d: %d index words for %d entries", s, words, sh.n)
		}
	}
}

type structKey struct {
	node string
	area float64
	k    int
}

var nodes = []string{"5nm", "7nm", "12nm", "14nm", "28nm"}

// fnvKey mirrors the callers' one-multiply FNV hashes, whose low bits
// barely move for integer or dyadic areas.
func fnvKey(k structKey) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(k.node); i++ {
		h = (h ^ uint64(k.node[i])) * 1099511628211
	}
	h = (h ^ math.Float64bits(k.area)) * 1099511628211
	return (h ^ uint64(k.k)) * 1099511628211
}

// ringLen sums the shards' ring lengths, which change only when a ring
// grows.
func ringLen[K comparable, V any](c *Cache[K, V]) int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].ring)
	}
	return n
}

// growthBounds take a shard's ring through every growth step: to one
// entry a shard (16), to 7 in one step (100), 8 → 16 → 32 → 63 (1000)
// and 8 → 16 → … → 512 (8192).
var growthBounds = []int{16, 100, 1000, 8192}

// TestDifferentialAgainstMap feeds the table and the map-backed
// reference the same random Get/Peek/Put/Note stream and requires the
// same answer and the same Stats after every operation: same victims,
// same first-write-wins, same counters. The last runs use the growth
// bounds with 8 keys per entry and enough operations to fill every
// shard, and check the index after each growth.
func TestDifferentialAgainstMap(t *testing.T) {
	hashes := []struct {
		name string
		fn   func(structKey) uint64
	}{
		{"fnv", fnvKey},
		{"constant", func(structKey) uint64 { return 7 }},
		{"colliding", func(k structKey) uint64 { return uint64(k.k%3) << 40 }},
		{"low-shard", func(k structKey) uint64 { return fnvKey(k) &^ 0xf }},
	}
	seeds, ops := 40, 20000
	if testing.Short() {
		seeds, ops = 8, 5000
	}
	for seed := 0; seed < seeds+len(growthBounds); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := hashes[seed%len(hashes)]
		max := 1 + rng.Intn(600)
		if seed < 4 {
			max = 1 + seed // sizes below the shard count: one entry per shard
		}
		universe := 1 + rng.Intn(4*max+8)
		ops := ops
		growth := seed >= seeds
		if growth {
			h = hashes[0]
			max = growthBounds[seed-seeds]
			universe = 8 * max
			if ops < 10*max {
				ops = 10 * max
			}
		}
		keys := make([]structKey, universe)
		for i := range keys {
			keys[i] = structKey{
				node: nodes[rng.Intn(len(nodes))],
				area: float64(rng.Intn(2000)) / 4,
				k:    rng.Intn(16),
			}
		}
		t.Run(fmt.Sprintf("seed=%d/%s/max=%d/keys=%d", seed, h.name, max, universe), func(t *testing.T) {
			c := New[structKey, string](max, h.fn)
			ref := newRef[structKey, string](max, h.fn)
			grown := ringLen(c)
			for op := 0; op < ops; op++ {
				k := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(20); {
				case r < 9:
					v := fmt.Sprint(op)
					c.Put(k, v)
					ref.Put(k, v)
					if n := ringLen(c); n != grown {
						grown = n
						checkIndex(t, c)
					}
				case r < 15:
					var v string
					ok := c.Get(k, &v)
					wv, wok := ref.Get(k)
					if v != wv || ok != wok {
						t.Fatalf("op %d Get(%v) = %q,%v; reference %q,%v", op, k, v, ok, wv, wok)
					}
				case r < 19:
					var v string
					ok := c.Peek(k, &v)
					wv, wok := ref.Peek(k)
					if v != wv || ok != wok {
						t.Fatalf("op %d Peek(%v) = %q,%v; reference %q,%v", op, k, v, ok, wv, wok)
					}
				default:
					hits, misses := int64(rng.Intn(3)), int64(rng.Intn(3))
					c.Note(hits, misses)
					ref.hits += hits
					ref.misses += misses
				}
				if st, want := c.Stats(), ref.Stats(); st != want {
					t.Fatalf("op %d: stats %+v, reference %+v", op, st, want)
				}
				if op%997 == 0 {
					checkIndex(t, c)
				}
			}
			checkIndex(t, c)
			if growth && grown != shardCount*c.perMax {
				t.Fatalf("rings grew to %d entries in all, want every shard at its bound of %d", grown, c.perMax)
			}
		})
	}
}

var sinkValue [3]float64

// TestSteadyStateAllocs pins the full table's fixed footprint: once
// every shard holds its bound, lookups and evicting inserts allocate
// nothing.
func TestSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	c := New[structKey, [3]float64](256, fnvKey)
	key := func(i int) structKey { return structKey{node: nodes[i%len(nodes)], area: float64(i) / 2, k: i % 16} }
	next := 0
	for ; next < 4096; next++ {
		c.Put(key(next), [3]float64{float64(next)})
	}
	probe := next - 1
	for name, fn := range map[string]func(){
		"Get hit":      func() { c.Get(key(probe), &sinkValue) },
		"Get miss":     func() { c.Get(structKey{node: "3nm"}, &sinkValue) },
		"Peek":         func() { c.Peek(key(probe), &sinkValue) },
		"evicting Put": func() { c.Put(key(next), [3]float64{}); next++ },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, n)
		}
	}
}

// TestHeapBounded fills one cache to its bound, then streams a million
// fresh keys through it: the live heap must stay at its reading once
// the table first held its bound, because a full table neither grows
// nor leaves tombstones behind.
func TestHeapBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keys := 1 << 20
	if testing.Short() {
		keys = 1 << 18
	}
	c := New[structKey, [3]float64](8192, fnvKey)
	i := 0
	put := func() {
		c.Put(structKey{node: nodes[i%len(nodes)], area: float64(i) / 8, k: i % 16}, [3]float64{1, 2, 3})
		i++
	}
	for c.Stats().Entries < 8192 {
		put()
	}
	base := heap()
	for end := i + keys; i < end; {
		put()
	}
	after := heap()
	runtime.KeepAlive(c)
	if after > base+base/20 {
		t.Fatalf("live heap grew from %d to %d bytes over %d fresh keys", base, after, keys)
	}
	if st := c.Stats(); st.Entries != 8192 {
		t.Fatalf("entries %d, want 8192", st.Entries)
	}
}

// TestStructuredHashProbeLength fills a shard with keys whose hashes
// differ only above bit 32 — the pattern that left raw low bits empty
// — and bounds the mean probe length the mixed index position gives.
// The keys are the first 512 whose mixed hash picks shard 0.
func TestStructuredHashProbeLength(t *testing.T) {
	const max = 16 * 512
	hash := func(k uint64) uint64 { return k << 32 }
	c := New[uint64, int](max, hash)
	for i, n := uint64(0), 0; n < 512; i++ {
		if shardOf(mix(hash(i))) == 0 {
			c.Put(i, int(i))
			n++
		}
	}
	sh := &c.shards[0]
	if sh.n != 512 {
		t.Fatalf("shard 0 holds %d entries, want a full 512", sh.n)
	}
	total := 0
	for j, w := range sh.index {
		if w != 0 {
			home := mix(hash(sh.ring[uint32(w)-1].key)) & sh.mask
			total += int((uint64(j)-home)&sh.mask) + 1
		}
	}
	if mean := float64(total) / float64(sh.n); mean > 2 {
		t.Fatalf("mean probe length %.2f in a full shard, want ≤ 2", mean)
	}
	checkIndex(t, c)
}

// TestConcurrentGrowth has 4 goroutines put and get shared and private
// keys while an empty 8192-entry table grows from nothing; run with
// -race. Every hit must return its own key's value, and since no shard
// reaches its bound, every key put must be there afterwards, once.
func TestConcurrentGrowth(t *testing.T) {
	const goroutines, shared, private = 4, 1000, 500
	c := New[structKey, string](8192, fnvKey)
	// owner 0 is shared; goroutine g owns the keys with k = g+1.
	key := func(owner, i int) structKey {
		return structKey{node: nodes[i%len(nodes)], area: float64(i) / 4, k: owner}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(shared) {
				k := key(0, i)
				want := fmt.Sprint(k)
				var v string
				if c.Get(k, &v) {
					if v != want {
						t.Errorf("shared key %v: got %q want %q", k, v, want)
						return
					}
				} else {
					c.Put(k, want)
				}
				if i >= private {
					continue
				}
				k = key(g+1, i)
				c.Put(k, fmt.Sprint(k))
				if !c.Peek(k, &v) || v != fmt.Sprint(k) {
					t.Errorf("private key %v: got %q right after putting it", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for owner := 0; owner <= goroutines; owner++ {
		n := shared
		if owner > 0 {
			n = private
		}
		for i := 0; i < n; i++ {
			k := key(owner, i)
			var v string
			if !c.Peek(k, &v) || v != fmt.Sprint(k) {
				t.Fatalf("key %v: got %q after the goroutines finished", k, v)
			}
		}
	}
	if st := c.Stats(); st.Entries != shared+goroutines*private || st.Hits+st.Misses != goroutines*shared {
		t.Fatalf("stats %+v", st)
	}
	checkIndex(t, c)
}

// TestConcurrentEviction runs many goroutines over a key universe
// larger than the cache, so inserts evict while others read; run with
// -race. Every hit must return its own key's value.
func TestConcurrentEviction(t *testing.T) {
	c := New[structKey, string](64, fnvKey)
	universe := make([]structKey, 400)
	for i := range universe {
		universe[i] = structKey{node: nodes[i%len(nodes)], area: float64(i) / 4, k: i % 16}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := universe[rng.Intn(len(universe))]
				want := fmt.Sprint(k)
				var v string
				ok := c.Get(k, &v)
				if !ok {
					ok = c.Peek(k, &v)
				}
				if ok && v != want {
					t.Errorf("key %v: got %q want %q", k, v, want)
					return
				}
				if !ok {
					c.Put(k, want)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 64 || st.Hits+st.Misses != 8*5000 {
		t.Fatalf("stats %+v", st)
	}
	checkIndex(t, c)
}

// TestHugeBound builds tables at the largest bounds, where rounding
// max/16 up as (max+15)/16 would overflow: each must put, get and
// count its keys without evicting. At a bound above 16·(2³¹−1) a shard
// holds 2³¹−1 entries, the most its index words can name, so filling
// one to eviction is out of a test's reach; TestShardBound pins the
// share instead.
func TestHugeBound(t *testing.T) {
	for _, max := range []int{math.MaxInt, math.MaxInt - 15} {
		c := New[int, int](max, intHash)
		const keys = 1000
		for i := 0; i < keys; i++ {
			c.Put(i, -i)
		}
		for i := 0; i < keys; i++ {
			if v := 0; !c.Get(i, &v) || v != -i {
				t.Fatalf("New(%d): key %d gave %d, want %d", max, i, v, -i)
			}
		}
		if st := c.Stats(); st.Hits != keys || st.Misses != 0 || st.Entries != keys {
			t.Fatalf("New(%d): stats %+v, want %d hits and entries", max, st, keys)
		}
		checkIndex(t, c)
	}
}

// TestShardBound pins each shard's share of a bound: max/16 rounded
// up, with no overflow, capped where an index word's 32 slot bits end.
func TestShardBound(t *testing.T) {
	for _, c := range []struct{ max, want int }{
		{1, 1}, {16, 1}, {17, 2}, {8192, 512},
		{16 * math.MaxInt32, math.MaxInt32},
		{16*math.MaxInt32 + 1, math.MaxInt32},
		{math.MaxInt - 15, math.MaxInt32},
		{math.MaxInt, math.MaxInt32},
	} {
		if got := shardBound(c.max); got != c.want {
			t.Errorf("shardBound(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}
