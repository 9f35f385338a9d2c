// Package memo provides a small, bounded, shard-safe cache for
// memoizing pure computations on the sweep hot path.
//
// The cache is generic over comparable keys and splits them over 16
// shards by the caller's hash. Each shard is a fixed-footprint table
// allocated once by New:
//
//   - a ring of perMax entries {hash, key, value} in insertion order,
//     which is also the FIFO eviction order, and
//   - an open-addressed index of at least 2×perMax words, a power of
//     two, probed linearly. A word is tag<<32 | slot+1, zero when the
//     word is free. The tag is the low 32 bits of a 64-bit finalizer
//     of the caller's hash; its low bits are the word's home position.
//     A probe rejects most non-matching keys without touching the
//     ring.
//
// Evicting the oldest entry removes its index word by backward-shift
// deletion, so a shard never leaves a tombstone, never grows and never
// allocates after New: the memory a cache holds is fixed at
// construction, however many keys stream through it. The finalizer
// matters because cheap one-multiply hashes leave the low bits nearly
// constant for integer or dyadic float fields.
//
// Every operation holds its shard's mutex for a few index probes and
// one entry copy. A plain mutex, not a read-write lock: on a
// miss-heavy sweep each miss is followed by an insert, and a writer
// waiting out readers parks goroutines. Get counts hits and misses in
// the shard, under the lock it already holds. Callers that batch their
// accounting (one tally per system, as the KGD cache does) publish via
// Note instead; Stats sums both.
//
// The hash must agree with ==: equal keys must hash equally. A key
// that is not equal to itself (a NaN field) is stored but never found.
package memo

import (
	"sync"
	"sync/atomic"
)

const shardCount = 16

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
}

type entry[K comparable, V any] struct {
	hash uint64 // mix of the caller's hash
	key  K
	val  V
}

type shard[K comparable, V any] struct {
	mu     sync.Mutex
	hits   int64 // counted by Get under mu
	misses int64
	ring   []entry[K, V] // perMax entries; ring[:n] are filled
	index  []uint64      // power of two, at least 2×perMax words
	mask   uint64
	n      int
	next   int      // oldest entry once the ring is full
	_      [64]byte // keep neighbouring shards off one cache line
}

// Cache is a bounded, sharded memo table. The zero value is not
// usable; construct with New. A nil *Cache is a valid "disabled"
// cache: Get always misses and Put is a no-op.
type Cache[K comparable, V any] struct {
	shards [shardCount]shard[K, V]
	hash   func(K) uint64
	_      [64]byte // Note's counters stay off the line holding hash

	hits   atomic.Int64
	misses atomic.Int64
}

// New builds a cache bounded to roughly max entries (rounded up to a
// multiple of the shard count), distributing keys with hash. A max
// below 1 returns nil — the disabled cache.
func New[K comparable, V any](max int, hash func(K) uint64) *Cache[K, V] {
	if max < 1 {
		return nil
	}
	per := (max + shardCount - 1) / shardCount
	slots := 2
	for slots < 2*per {
		slots *= 2
	}
	c := &Cache[K, V]{hash: hash}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.ring = make([]entry[K, V], per)
		sh.index = make([]uint64, slots)
		sh.mask = uint64(slots - 1)
	}
	return c
}

// HashPrime is FNV-1a's 64-bit prime. The cost model's tables fold
// their key fields into a hash with it, seedless: a seeded hash would
// cost as much as a miss.
const HashPrime = 1099511628211

// HashString is FNV-1a over s's bytes. A table keyed by a small
// integer that stands for a string (a node id) starts each key's hash
// from HashString of that string, precomputed once per integer, so
// its shard choice is that of a key holding the string itself.
func HashString(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a's 64-bit offset basis
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * HashPrime
	}
	return h
}

// mix is murmur3's fmix64 finalizer: every output bit depends on every
// input bit, so the low bits that give the tag and the index position
// are well spread even when the caller's hash is not.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// locate hashes k once, picking its shard from the caller's hash and
// its index position and tag from the mixed hash.
func (c *Cache[K, V]) locate(k K) (*shard[K, V], uint64) {
	h := c.hash(k)
	return &c.shards[h%shardCount], mix(h)
}

// find returns the ring slot holding k, or -1. The index always has a
// free word, so the probe terminates.
func (sh *shard[K, V]) find(h uint64, k K) int {
	for i := h & sh.mask; ; i = (i + 1) & sh.mask {
		w := sh.index[i]
		if w == 0 {
			return -1
		}
		if w>>32 == h&0xffffffff {
			if slot := int(uint32(w)) - 1; sh.ring[slot].key == k {
				return slot
			}
		}
	}
}

// unindex removes the word pointing at slot and shifts later words of
// its probe run back into the gap, so no tombstone is left behind.
func (sh *shard[K, V]) unindex(slot int) {
	want := uint32(slot + 1)
	i := sh.ring[slot].hash & sh.mask
	for uint32(sh.index[i]) != want {
		i = (i + 1) & sh.mask
	}
	for j := (i + 1) & sh.mask; ; j = (j + 1) & sh.mask {
		w := sh.index[j]
		if w == 0 {
			break
		}
		// A word may fill the gap at i unless its home position lies
		// cyclically in (i, j]. The tag holds the home position, so
		// the shift reads only the index, never the ring.
		home := w >> 32 & sh.mask
		if (j-home)&sh.mask >= (j-i)&sh.mask {
			sh.index[i] = w
			i = j
		}
	}
	sh.index[i] = 0
}

// Get returns the cached value for k, counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	sh, h := c.locate(k)
	sh.mu.Lock()
	if slot := sh.find(h, k); slot >= 0 {
		v, ok = sh.ring[slot].val, true
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return v, ok
}

// Peek is Get without touching the hit/miss counters, for callers
// that batch their accounting through Note.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	sh, h := c.locate(k)
	sh.mu.Lock()
	if slot := sh.find(h, k); slot >= 0 {
		v, ok = sh.ring[slot].val, true
	}
	sh.mu.Unlock()
	return v, ok
}

// Put inserts k→v, evicting the shard's oldest entry if the shard is
// full. A key already present keeps its original value: concurrent
// fillers compute identical results for identical keys, and
// first-write-wins avoids churning the eviction order.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	sh, h := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.find(h, k) >= 0 {
		return
	}
	slot := sh.n
	if sh.n < len(sh.ring) {
		sh.n++
	} else {
		slot = sh.next
		sh.unindex(slot)
		sh.next = (sh.next + 1) % len(sh.ring)
	}
	e := &sh.ring[slot]
	e.hash, e.key, e.val = h, k, v
	i := h & sh.mask
	for sh.index[i] != 0 {
		i = (i + 1) & sh.mask
	}
	sh.index[i] = h<<32 | uint64(slot+1)
}

// Note publishes batched hit/miss counts recorded outside the cache.
func (c *Cache[K, V]) Note(hits, misses int64) {
	if c == nil {
		return
	}
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// Stats snapshots the counters and current entry count.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Entries += sh.n
		sh.mu.Unlock()
	}
	return st
}
