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
// its package partial. fails marks a shape whose die or package cannot
// be priced on the shape path; Single then takes the step path, which
// reports the error from the key.
type shapeEntry struct {
	raw, yield float64
	pkg        packaging.Partial
	fails      bool
}

// shapeCache is the uniform-shape table: 160 bytes an entry, no pointer.
type shapeCache = memo.Cache[shapeKey, shapeEntry]

// newShapeCache builds the shape table for db's nodes.
func newShapeCache(max int, db *tech.Database) *shapeCache {
	return memo.New[shapeKey, shapeEntry](max, shapeKeyHash(db))
}

// shapeKeyHash returns the shape table's hash for db's nodes: FNV-1a
// over the node name — precomputed per node id — then the scheme, flow
// and width word and the two area words, as the NRE uniform-term table
// it replaced hashed its keys, so each shape lands in the same shard.
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
// probe. A miss prices the package once through the partial table and
// the die once through the KGD table (booking k probes, as REUniform
// does), and stores both. ok is false for what the step path must
// report or price itself: a quantity of zero or below, an unknown
// node, a scheme or flow outside the key, and a shape whose die or
// package fails.
func (e *Evaluator) singleShape(s system.System, u system.Uniform, policy nre.Policy) (TotalCost, bool) {
	if s.Quantity <= 0 || uint(s.Scheme) > math.MaxUint8 || uint(s.Flow) > math.MaxUint8 {
		return TotalCost{}, false
	}
	id, err := e.db.NodeID(u.Node)
	if err != nil {
		return TotalCost{}, false
	}
	key := shapeKey{node: int32(id), scheme: uint8(s.Scheme), flow: uint8(s.Flow), k: uint16(u.K),
		moduleArea: u.ModuleAreaMM2, d2dArea: u.D2DAreaMM2}
	ent, hit := e.shapes.Get(key)
	if !hit {
		ent = e.priceShape(s, u, id)
		e.shapes.Put(key, ent)
	}
	if ent.fails {
		return TotalCost{}, false
	}
	node := e.db.NodeByID(id)
	return TotalCost{
		RE:  cost.UniformBreakdown(s, u, ent.raw, ent.yield, ent.pkg),
		NRE: nre.AmortizeUniform(&node, u, s.Scheme, &ent.pkg, s.Quantity, policy),
	}, true
}

// priceShape prices a shape the table does not hold: the package first,
// as EvaluateUniform would, and the die only when the package prices,
// as REUniform would run only then — so the KGD and partial tables see
// the keys the step path would show them.
func (e *Evaluator) priceShape(s system.System, u system.Uniform, id int) shapeEntry {
	pt, err := packaging.CachedPartial(e.partials, e.Cost.Params(), e.db, u.PackageKey(s.Scheme, s.Flow))
	if err != nil {
		return shapeEntry{fails: true}
	}
	dc, err := e.Cost.UniformDie(s, u, id)
	if err != nil || !(dc.KGD >= 0) {
		return shapeEntry{fails: true}
	}
	return shapeEntry{raw: dc.Raw, yield: dc.Yield, pkg: pt}
}
