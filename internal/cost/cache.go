package cost

import (
	"math"

	"chipletactuary/internal/memo"
	"chipletactuary/internal/tech"
)

// DieKey identifies one memoizable die evaluation. Two dies with the
// same key have identical raw cost, yield and KGD cost regardless of
// which system mounts them: the die area already folds in the D2D
// interface overhead (module area / (1 − d2d fraction)), and the
// salvage terms cover partial-good harvesting. The chiplet name is
// deliberately excluded — it labels the design but does not change
// its manufacturing cost. The KGD table stores it as a dieKey, with
// the node named by its tech.Database id.
type DieKey struct {
	Node            string
	AreaMM2         float64
	SalvageFraction float64
	SalvageValue    float64
}

// dieKey is DieKey as the KGD table holds it: the node is its id in
// the engine's database, so neither key nor value holds a pointer and
// the collector never scans the table.
type dieKey struct {
	node            int
	areaMM2         float64
	salvageFraction float64
	salvageValue    float64
}

// dieValue is the cached portion of a DieCost: its raw cost and
// yield. The identity fields are refilled from the chiplet at hand,
// and the KGD cost is recomputed as raw / yield, the division the miss
// path makes, so a hit carries the same bits.
type dieValue struct {
	raw   float64
	yield float64
}

// CacheStats reports the hit/miss counters of a KGD cache.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// cacheTally accumulates hit/miss counts across one RE evaluation so
// the shared counters are touched once per system, not once per die.
type cacheTally struct {
	hits   int64
	misses int64
}

// KGDCache is a bounded, concurrency-safe memoization table for die
// evaluations, backed by the sharded memo cache. Each shard evicts
// FIFO — sweeps and portfolios revisit the same handful of die shapes
// over and over, so recency tracking buys nothing at this working-set
// size, and a miss-heavy sweep (every candidate a new die shape) pays
// O(1) per insert. The table grows as dies arrive, up to its bound;
// once full, its memory is fixed however many dies stream through.
type KGDCache = memo.Cache[dieKey, dieValue]

// newKGDCache builds the KGD table for db's nodes.
func newKGDCache(max int, db *tech.Database) *KGDCache {
	return memo.New[dieKey, dieValue](max, dieKeyHash(db))
}

// dieKeyHash returns the KGD table's hash for db's nodes: inline FNV-1a
// over the node name — precomputed per node id — and the area bits. A
// seeded hash here would cost as much as a cache miss; the memo table
// mixes this one before picking a shard and an index position, so weak
// low bits neither crowd a shard nor lengthen probes. The salvage
// fields are left out — the shard compares whole keys on a tag match.
func dieKeyHash(db *tech.Database) func(dieKey) uint64 {
	names := make([]uint64, db.Len())
	for id := range names {
		names[id] = memo.HashString(db.NodeByID(id).Name)
	}
	return func(k dieKey) uint64 {
		return (names[k.node] ^ math.Float64bits(k.areaMM2)) * memo.HashPrime
	}
}
