package explore

import (
	"math"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/memo"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// shapeKey names one uniform shape: the node (by tech.Database id),
// scheme, flow, partition width and per-chiplet areas — every input of
// a uniform system's RE and NRE except its names and its quantity.
type shapeKey struct {
	node       int32
	scheme     uint8
	flow       uint8
	k          uint16
	moduleArea float64
	d2dArea    float64
}

// shapeEntry is everything quantity-independent about one shape that
// the node does not give cheaply: the raw cost and yield of its die and
// its package partial, packed as the partial table packs it. pkg.Failed
// marks a shape whose die or package cannot be priced on the shape
// path; Single then takes the step path, which reports the error from
// the key.
type shapeEntry struct {
	raw, yield float64
	pkg        packaging.PartialOutcome
}

// shapeCache is the uniform-shape table: 128 bytes an entry, no pointer.
type shapeCache = memo.Cache[shapeKey, shapeEntry]

// newShapeCache builds the shape table for db's nodes.
func newShapeCache(max int, db *tech.Database) *shapeCache {
	return memo.New[shapeKey, shapeEntry](max, shapeKeyHash(db))
}

// shapeKeyHash returns the shape table's hash for db's nodes: FNV-1a
// over the node name — precomputed per node id — then the scheme, flow
// and width word and the two area words. The memo table mixes it before
// picking a shard and an index position.
func shapeKeyHash(db *tech.Database) func(shapeKey) uint64 {
	names := make([]uint64, db.Len())
	for id := range names {
		names[id] = memo.HashString(db.NodeByID(id).Name)
	}
	return func(k shapeKey) uint64 {
		h := names[k.node]
		h = (h ^ (uint64(k.scheme)<<24 | uint64(k.flow)<<16 | uint64(k.k))) * memo.HashPrime
		h = (h ^ math.Float64bits(k.moduleArea)) * memo.HashPrime
		h = (h ^ math.Float64bits(k.d2dArea)) * memo.HashPrime
		return h
	}
}

// singleShape prices a uniform system from the shape table with one
// probe, into *tc, which it writes only when it returns true. A miss
// prices the package once through the partial table and the die once
// through the KGD table (booking k probes, as REUniform does), and
// stores both. ok is false for what the step path must report or price
// itself: a quantity of zero or below, an unknown node, a scheme or
// flow outside the key, and a shape whose die or package fails.
func (e *Evaluator) singleShape(s *system.System, u system.Uniform, policy nre.Policy, tc *TotalCost) (ok bool) {
	if s.Quantity <= 0 || uint(s.Scheme) > math.MaxUint8 || uint(s.Flow) > math.MaxUint8 {
		return false
	}
	id, err := e.db.NodeID(u.Node)
	if err != nil {
		return false
	}
	key := shapeKey{node: int32(id), scheme: uint8(s.Scheme), flow: uint8(s.Flow), k: uint16(u.K),
		moduleArea: u.ModuleAreaMM2, d2dArea: u.D2DAreaMM2}
	var ent shapeEntry
	if !e.shapes.Get(key, &ent) {
		e.priceShape(s, u, id, &ent)
		e.shapes.Put(key, ent)
	}
	if ent.pkg.Failed {
		return false
	}
	var pt packaging.Partial
	ent.pkg.Unpack(&pt)
	cost.UniformBreakdown(s, u, ent.raw, ent.yield, &pt, &tc.RE)
	tc.NRE = nre.AmortizeUniform(e.db.NodeByID(id), u, s.Scheme, &pt, s.Quantity, policy)
	return true
}

// priceShape prices into *ent a shape the table does not hold: the
// package first, as EvaluateUniform would, and the die only when the
// package prices, as REUniform would run only then — so the KGD and
// partial tables see the keys the step path would show them.
func (e *Evaluator) priceShape(s *system.System, u system.Uniform, id int, ent *shapeEntry) {
	failed := shapeEntry{pkg: packaging.PartialOutcome{Failed: true}}
	var pt packaging.Partial
	if err := packaging.CachedPartial(e.partials, &e.params, e.db, u.PackageKey(s.Scheme, s.Flow), &pt); err != nil {
		*ent = failed
		return
	}
	dc, err := e.Cost.UniformDie(s, u, id)
	// A validated database cannot price a die below zero or at NaN; the
	// check stays as a defense, sending such a shape to the step path.
	if err != nil || !(dc.KGD >= 0) {
		*ent = failed
		return
	}
	*ent = shapeEntry{raw: dc.Raw, yield: dc.Yield, pkg: packaging.Outcome(&pt, nil)}
}
