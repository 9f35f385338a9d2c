// Package memo provides a small, bounded, shard-safe cache for
// memoizing pure computations on the sweep hot path.
//
// The cache is generic over comparable keys. It runs the caller's hash
// through a 64-bit finalizer once per operation and splits the keys
// over 16 shards by the top bits of the result. Each shard holds at
// most perMax entries, its share of the bound, in two arrays:
//
//   - a ring of entries {key, value} in insertion order, which is
//     also the FIFO eviction order, and
//   - an open-addressed index of at least twice the ring's length in
//     words, a power of two, probed linearly. A word is
//     tag<<32 | slot+1, zero when the word is free. The tag is the low
//     32 bits of the finalized hash; its low bits are the word's home
//     position. A probe rejects most non-matching keys without
//     touching the ring.
//
// New allocates no ring and a 2-word index per shard, so an unfilled
// table costs only what it holds. A shard whose ring is full below
// perMax doubles it (to at least 8 entries, at most perMax), every
// entry keeping its slot, and rebuilds the index at twice the new
// ring. Once the ring holds perMax entries it stops growing: evicting
// the oldest entry removes its index word by backward-shift deletion,
// so a full shard never leaves a tombstone and never allocates again,
// however many keys stream through it. Growth changes no answer,
// victim or counter; it only spares memory a table never fills. The
// finalizer matters because cheap one-multiply hashes leave the low
// bits nearly constant for integer or dyadic float fields: taken raw,
// they would crowd a few shards and lengthen probes.
//
// Every operation holds its shard's mutex for a few index probes and
// one entry copy; a Put that evicts also rehashes its victim's key. A
// plain mutex, not a read-write lock: on a miss-heavy sweep each miss
// is followed by an insert, and a writer waiting out readers parks
// goroutines. Get counts hits and misses in the shard, under the lock
// it already holds. Callers that batch their accounting (one tally per
// system, as the KGD cache does) publish via Note instead; Stats sums
// both.
//
// An entry does not store its hash: eviction, the one step that needs
// the hash of a key it was not handed, recomputes it from the victim's
// key under the shard's lock. So the hash must be a pure function of
// the key that never calls into the cache, and it must agree with ==:
// equal keys must hash equally. A key that is not equal to itself (a
// NaN field) is stored but never found.
package memo

import (
	"math"
	"sync"
	"sync/atomic"
)

// shardBits is the number of top bits of the finalized hash that pick a
// key's shard.
const shardBits = 4

const shardCount = 1 << shardBits

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
}

type entry[K comparable, V any] struct {
	key K
	val V
}

type shard[K comparable, V any] struct {
	mu     sync.Mutex
	hits   int64 // counted by Get under mu
	misses int64
	ring   []entry[K, V] // up to perMax entries; ring[:n] are filled
	index  []uint64      // power of two, at least 2×len(ring) words
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
	perMax int      // each shard's bound
	_      [64]byte // Note's counters stay off the line holding hash

	hits   atomic.Int64
	misses atomic.Int64
}

// New builds a cache bounded to roughly max entries (rounded up to a
// multiple of the shard count, and at most 2³¹−1 a shard), distributing
// keys with hash. A max below 1 returns nil — the disabled cache. No
// shard holds a ring yet; each grows its own as keys arrive.
func New[K comparable, V any](max int, hash func(K) uint64) *Cache[K, V] {
	if max < 1 {
		return nil
	}
	c := &Cache[K, V]{hash: hash, perMax: shardBound(max)}
	// Every shard starts with 2 free words, so an empty shard's probe
	// misses at once; one block holds all of them.
	index := make([]uint64, 2*shardCount)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.index = index[2*i : 2*i+2 : 2*i+2]
		sh.mask = 1
	}
	return c
}

// shardBound is each shard's share of a bound max ≥ 1: max/shardCount
// rounded up, computed so that no max overflows, and at most
// math.MaxInt32. An index word keeps a slot+1 in its low 32 bits and a
// home position in its 32-bit tag, so a shard's ring may not pass 2³¹−1
// entries nor its index 2³² words.
func shardBound(max int) int {
	return min((max-1)/shardCount+1, math.MaxInt32)
}

// HashPrime is FNV-1a's 64-bit prime. The cost model's tables fold
// their key fields into a hash with it, seedless: a seeded hash would
// cost as much as a miss.
const HashPrime = 1099511628211

// HashString is FNV-1a over s's bytes. A table keyed by a small
// integer that stands for a string (a node id) starts each key's hash
// from HashString of that string, precomputed once per integer, so the
// key hashes as a key holding the string itself would.
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

// shardOf returns the shard of a key whose finalized hash is h: its top
// bits, which the index position and the tag, taken from the low bits,
// do not use.
func shardOf(h uint64) uint64 { return h >> (64 - shardBits) }

// locate hashes k once, picking its shard, index position and tag from
// the mixed hash.
func (c *Cache[K, V]) locate(k K) (*shard[K, V], uint64) {
	h := mix(c.hash(k))
	return &c.shards[shardOf(h)], h
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

// unindex removes the word pointing at slot, whose key has the
// finalized hash h, and shifts later words of its probe run back into
// the gap, so no tombstone is left behind. The word lies in the probe
// run that starts at its home, h's position; a free word before it
// means h is not the hash the word was inserted under, which only a
// bug can cause, so unindex panics rather than scan the whole index.
func (sh *shard[K, V]) unindex(slot int, h uint64) {
	want := uint32(slot + 1)
	i := h & sh.mask
	for w := sh.index[i]; uint32(w) != want; w = sh.index[i] {
		if w == 0 {
			panic("memo: evicted entry missing from its probe run")
		}
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

// Get copies the cached value for k into *v, which the caller owns,
// and reports whether k was cached, counting a hit or a miss; a miss
// leaves *v as it was. The value is copied once, from the entry
// straight into *v: the cost model's values are up to 104 bytes.
func (c *Cache[K, V]) Get(k K, v *V) bool {
	if c == nil {
		return false
	}
	sh, h := c.locate(k)
	sh.mu.Lock()
	slot := sh.find(h, k)
	if slot >= 0 {
		*v = sh.ring[slot].val
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return slot >= 0
}

// Peek is Get without touching the hit/miss counters, for callers
// that batch their accounting through Note.
func (c *Cache[K, V]) Peek(k K, v *V) bool {
	if c == nil {
		return false
	}
	sh, h := c.locate(k)
	sh.mu.Lock()
	slot := sh.find(h, k)
	if slot >= 0 {
		*v = sh.ring[slot].val
	}
	sh.mu.Unlock()
	return slot >= 0
}

// grow lengthens a full ring below perMax to twice its length, at
// least 8 entries and at most perMax, with every entry in the same
// slot, and rebuilds the index at the smallest power of two at least
// twice the new ring. A word's slot is unchanged and its tag holds its
// home position, so each old word is re-placed from the old index
// alone, without reading the ring.
func (sh *shard[K, V]) grow(perMax int) {
	ring := make([]entry[K, V], min(max(2*len(sh.ring), 8), perMax))
	copy(ring, sh.ring)
	slots := len(sh.index)
	for slots < 2*len(ring) {
		slots *= 2
	}
	index := make([]uint64, slots)
	mask := uint64(slots - 1)
	for _, w := range sh.index {
		if w != 0 {
			i := w >> 32 & mask
			for index[i] != 0 {
				i = (i + 1) & mask
			}
			index[i] = w
		}
	}
	sh.ring, sh.index, sh.mask = ring, index, mask
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
	if sh.n == len(sh.ring) && sh.n < c.perMax {
		sh.grow(c.perMax)
	}
	slot := sh.n
	if sh.n < len(sh.ring) {
		sh.n++
	} else {
		slot = sh.next
		sh.unindex(slot, mix(c.hash(sh.ring[slot].key)))
		sh.next = (sh.next + 1) % len(sh.ring)
	}
	e := &sh.ring[slot]
	e.key, e.val = k, v
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
