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
	if _, ok := c.Get(1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(1, "one")
	if v, ok := c.Get(1); !ok || v != "one" {
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
	if v, _ := c.Peek(7); v != "first" {
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
	if _, ok := c.Peek(10*max - 1); !ok {
		t.Fatal("most recent key was evicted")
	}
}

func TestNilCacheDisabled(t *testing.T) {
	var c *Cache[int, int]
	if c != New[int, int](0, intHash) {
		t.Fatal("New with max<1 should return nil")
	}
	c.Put(1, 1) // must not panic
	if _, ok := c.Get(1); ok {
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
				if v, ok := c.Get(k); ok {
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
// same shard choice, FIFO order and first-write-wins, with a Go map
// per shard.
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
	v, ok := c.shards[c.hash(k)%shardCount].m[k]
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
	sh := &c.shards[c.hash(k)%shardCount]
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

// checkIndex verifies the table's invariants: every filled ring slot
// is indexed exactly once, by a word carrying its tag, reachable from
// its home position without crossing a free word.
func checkIndex[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	for s := range c.shards {
		sh := &c.shards[s]
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
			e := sh.ring[slot]
			if w>>32 != e.hash&0xffffffff {
				t.Fatalf("shard %d word %d: tag mismatch", s, j)
			}
			for i := e.hash & sh.mask; i != uint64(j); i = (i + 1) & sh.mask {
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

// TestDifferentialAgainstMap feeds the table and the map-backed
// reference the same random Get/Peek/Put/Note stream and requires the
// same answer and the same Stats after every operation: same victims,
// same first-write-wins, same counters.
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
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := hashes[seed%len(hashes)]
		max := 1 + rng.Intn(600)
		if seed < 4 {
			max = 1 + seed // sizes below the shard count: one entry per shard
		}
		universe := 1 + rng.Intn(4*max+8)
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
			for op := 0; op < ops; op++ {
				k := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(20); {
				case r < 9:
					v := fmt.Sprint(op)
					c.Put(k, v)
					ref.Put(k, v)
				case r < 15:
					v, ok := c.Get(k)
					wv, wok := ref.Get(k)
					if v != wv || ok != wok {
						t.Fatalf("op %d Get(%v) = %q,%v; reference %q,%v", op, k, v, ok, wv, wok)
					}
				case r < 19:
					v, ok := c.Peek(k)
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
		})
	}
}

// TestSteadyStateAllocs pins the fixed footprint: once built, lookups
// and evicting inserts allocate nothing.
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
		"Get hit":      func() { c.Get(key(probe)) },
		"Get miss":     func() { c.Get(structKey{node: "3nm"}) },
		"Peek":         func() { c.Peek(key(probe)) },
		"evicting Put": func() { c.Put(key(next), [3]float64{}); next++ },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, n)
		}
	}
}

// TestHeapBounded streams a million fresh keys through one cache: the
// live heap must stay at its reading just after construction, because
// the table neither grows nor leaves tombstones behind.
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
	base := heap()
	for i := 0; i < keys; i++ {
		c.Put(structKey{node: nodes[i%len(nodes)], area: float64(i) / 8, k: i % 16}, [3]float64{1, 2, 3})
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
func TestStructuredHashProbeLength(t *testing.T) {
	const max = 16 * 512
	c := New[uint64, int](max, func(k uint64) uint64 { return k << 32 })
	for i := uint64(0); i < 512; i++ {
		c.Put(i, int(i))
	}
	sh := &c.shards[0]
	if sh.n != 512 {
		t.Fatalf("shard 0 holds %d entries, want a full 512", sh.n)
	}
	total := 0
	for j, w := range sh.index {
		if w != 0 {
			home := sh.ring[uint32(w)-1].hash & sh.mask
			total += int((uint64(j)-home)&sh.mask) + 1
		}
	}
	if mean := float64(total) / float64(sh.n); mean > 2 {
		t.Fatalf("mean probe length %.2f in a full shard, want ≤ 2", mean)
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
				v, ok := c.Get(k)
				if !ok {
					v, ok = c.Peek(k)
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
