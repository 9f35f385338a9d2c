package system

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// Monolithic builds an SoC system: one die carrying a single module of
// the given area, no D2D interface. Its placement and module share one
// block, and the system, die and module names (name, name+"-die",
// name+"-logic") are slices of one string that begins with name, so the
// system costs two allocations; retaining any one name keeps the others
// alive.
func Monolithic(name, node string, moduleAreaMM2, quantity float64) System {
	return MonolithicSuffixed(name, "", node, moduleAreaMM2, quantity)
}

// MonolithicSuffixed is Monolithic for the system named name+suffix.
// Both are written straight into the one names string, so the system
// costs Monolithic's two allocations however long name is; building
// name+suffix first would cost a third once it outgrows the compiler's
// 32-byte stack buffer.
func MonolithicSuffixed(name, suffix, node string, moduleAreaMM2, quantity float64) System {
	var exact Chunks
	return exact.monolithic(name, nil, suffix, node, moduleAreaMM2, quantity)
}

// MaxPartitionCount bounds the dies one system mounts: System.Validate
// rejects a system with more, and PartitionEqual a partition count
// above it, and so does every sweep count axis (sweep.Grid.Validate,
// sweep.CountRange). 4096 dies is far past any package the paper's
// schemes can build, and a larger count would only ask the builders and
// the pricing walks for placements, names and die costs by the
// gigabyte.
const MaxPartitionCount = 4096

// PartitionEqual re-partitions a monolithic module area into k
// distinct chiplets of equal module area, each carrying the D2D
// overhead, integrated by the given scheme. This is the §4.1
// experiment setup ("we divide a monolithic chip into different
// numbers of chiplets ... no reuse is utilized"): each chiplet is a
// separate design, so each pays its own chip NRE.
//
// Chiplet i is named name+"-chiplet-i" and its module name+"-part-i".
// The system name and all 2k names are slices of one string that
// begins with name, so a system costs three allocations whatever k is
// (placements, modules, names); retaining any one name — the system's,
// or a Breakdown.Dies[i].Name, say — keeps the other names of the
// system alive.
func PartitionEqual(name, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	var exact Chunks
	return exact.partitionEqual(name, nil, node, moduleAreaMM2, k, scheme, d2d, quantity)
}

// Chunks carves the placement and module slices of many built systems
// out of shared chunks, so a walk that builds a system per point (the
// sweep generator) allocates placements and modules once per chunk
// instead of once per system. The first placement and module chunks
// hold the length given to NewChunks; each later chunk doubles its
// predecessor, rounded up to fill its size class, until a placement
// chunk holds maxChunkPlacements (24 KiB) and a module chunk
// maxChunkModules (12 KiB). A system wider than that gets exact-size
// slices of its own.
//
// Every system's placement and module slices, and each chiplet's
// module slice, have cap == len, so appending to or writing through
// one system never reaches another. Retaining one built System keeps
// its placement and module chunks — at most about 36 KiB — alive.
//
// The zero Chunks draws exact-size slices for every system, as the
// package-level PartitionEqual and Monolithic do; a monolithic system's
// placement and module share one block. A Chunks is not safe for
// concurrent use.
type Chunks struct {
	placements chunk[Placement]
	modules    chunk[Module]
}

// maxChunkPlacements and maxChunkModules end the doubling: 279
// placements (24 552 B) fill a 24 KiB chunk and 383 modules (12 256 B)
// a 12 KiB one.
const (
	maxChunkPlacements = 279
	maxChunkModules    = 383
)

// NewChunks returns chunks whose first placement and module chunks
// hold first entries each (at least one, at most a full chunk): for a
// sweep, the placements one innermost run of the grid builds.
func NewChunks(first int) Chunks {
	return Chunks{
		placements: chunk[Placement]{next: min(max(first, 1), maxChunkPlacements), max: maxChunkPlacements},
		modules:    chunk[Module]{next: min(max(first, 1), maxChunkModules), max: maxChunkModules},
	}
}

// PartitionEqual is the package-level PartitionEqual with the system
// name given as bytes, which are copied into the names string, and the
// placement and module slices carved from c's chunks.
func (c *Chunks) PartitionEqual(name []byte, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	return c.partitionEqual("", name, node, moduleAreaMM2, k, scheme, d2d, quantity)
}

// chunk is the unused tail of one kind's current chunk.
type chunk[T any] struct {
	free []T
	next int // length the next chunk asks for; 0 draws exact-size slices
	max  int // length past which the doubling stops
}

// carve returns k fresh, zeroed entries with cap k.
func (c *chunk[T]) carve(k int) []T {
	if len(c.free) < k {
		if c.next == 0 || k > c.max {
			return make([]T, k)
		}
		// The abandoned tail, shorter than k, is never handed out.
		fresh := slices.Grow([]T(nil), max(c.next, k))
		c.free = fresh[:cap(fresh)]
		c.next = min(2*cap(fresh), c.max)
	}
	s := c.free[:k:k]
	c.free = c.free[k:]
	return s
}

// partitionEqual is PartitionEqual with the system name given as a
// string or as bytes (the other empty).
func (c *Chunks) partitionEqual(name string, nameBytes []byte, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	if k < 1 {
		return System{}, fmt.Errorf("system: partition count %d must be ≥ 1", k)
	}
	if k > MaxPartitionCount {
		return System{}, fmt.Errorf("system: partition count %d exceeds the bound of %d", k, MaxPartitionCount)
	}
	if moduleAreaMM2 <= 0 {
		return System{}, fmt.Errorf("system: module area %v must be positive", moduleAreaMM2)
	}
	if k == 1 && scheme == packaging.SoC {
		return c.monolithic(name, nameBytes, "", node, moduleAreaMM2, quantity), nil
	}
	if scheme == packaging.SoC {
		return System{}, fmt.Errorf("system: cannot partition into %d chiplets on an SoC", k)
	}
	per := moduleAreaMM2 / float64(k)
	placements := c.placements.carve(k)
	modules := c.modules.carve(k)
	// Grown to the exact size up front, the builder never reallocates,
	// and String() is a view of its one buffer: names sliced from it
	// mid-build stay valid because written bytes are never rewritten.
	// The system name is the first bytes; every later copy of it is
	// copied from there, and the first chiplet name starts with it.
	var names strings.Builder
	n := len(name) + len(nameBytes)
	names.Grow(k*(2*n+len("-chiplet-")+len("-part-")) + 2*digitsUpTo(k))
	names.WriteString(name)
	names.Write(nameBytes)
	sysName := names.String()
	var num [20]byte
	for i := range placements {
		seq := strconv.AppendInt(num[:0], int64(i+1), 10)
		start := 0
		if i > 0 {
			start = names.Len()
			names.WriteString(sysName)
		}
		names.WriteString("-chiplet-")
		names.Write(seq)
		mid := names.Len()
		names.WriteString(sysName)
		names.WriteString("-part-")
		names.Write(seq)
		all := names.String()
		// Field by field into the zeroed entries: no composite literal
		// is built and copied in.
		m := &modules[i]
		m.Name = all[mid:]
		m.AreaMM2 = per
		m.Scalable = true
		p := &placements[i]
		p.Chiplet.Name = all[start:mid]
		p.Chiplet.Node = node
		p.Chiplet.Modules = modules[i : i+1 : i+1]
		p.Chiplet.D2D = d2d
		p.Count = 1
	}
	return System{Name: sysName, Scheme: scheme, Placements: placements, Quantity: quantity}, nil
}

// monolithic is Monolithic for the system named name+nameBytes+suffix
// (name or nameBytes empty), building into c. The zero Chunks takes the
// placement and the module from one block, each slice with cap ==
// len == 1.
func (c *Chunks) monolithic(name string, nameBytes []byte, suffix, node string, moduleAreaMM2, quantity float64) System {
	var placements []Placement
	var modules []Module
	if c.placements.next == 0 && c.modules.next == 0 {
		block := new(struct {
			p [1]Placement
			m [1]Module
		})
		placements, modules = block.p[:], block.m[:]
	} else {
		placements = c.placements.carve(1)
		modules = c.modules.carve(1)
	}
	var names strings.Builder
	n := len(name) + len(nameBytes) + len(suffix)
	names.Grow(2*n + len("-die") + len("-logic"))
	names.WriteString(name)
	names.Write(nameBytes)
	names.WriteString(suffix)
	sysName := names.String()
	names.WriteString("-die")
	die := names.Len()
	names.WriteString(sysName)
	names.WriteString("-logic")
	all := names.String()
	m := &modules[0]
	m.Name = all[die:]
	m.AreaMM2 = moduleAreaMM2
	m.Scalable = true
	p := &placements[0]
	p.Chiplet.Name = all[:die]
	p.Chiplet.Node = node
	p.Chiplet.Modules = modules
	p.Chiplet.D2D = dtod.None{}
	p.Count = 1
	return System{Name: sysName, Scheme: packaging.SoC, Placements: placements, Quantity: quantity}
}

// digitsUpTo returns the number of decimal digits in 1, 2, …, k.
func digitsUpTo(k int) int {
	n := 0
	for p := 1; p <= k; p *= 10 {
		n += k - p + 1
	}
	return n
}

// PartitionWeighted splits a module area into chiplets with the given
// weights (normalized internally). Each chiplet is a distinct design.
func PartitionWeighted(name, node string, moduleAreaMM2 float64, weights []float64,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	if len(weights) == 0 {
		return System{}, fmt.Errorf("system: no partition weights")
	}
	if moduleAreaMM2 <= 0 {
		return System{}, fmt.Errorf("system: module area %v must be positive", moduleAreaMM2)
	}
	if scheme == packaging.SoC && len(weights) > 1 {
		return System{}, fmt.Errorf("system: cannot partition into %d chiplets on an SoC", len(weights))
	}
	var total float64
	for i, w := range weights {
		if w <= 0 {
			return System{}, fmt.Errorf("system: weight %d is non-positive (%v)", i, w)
		}
		total += w
	}
	placements := make([]Placement, len(weights))
	for i, w := range weights {
		placements[i] = Placement{
			Chiplet: Chiplet{
				Name:    fmt.Sprintf("%s-chiplet-%d", name, i+1),
				Node:    node,
				Modules: []Module{{Name: fmt.Sprintf("%s-part-%d", name, i+1), AreaMM2: moduleAreaMM2 * w / total, Scalable: true}},
				D2D:     d2d,
			},
			Count: 1,
		}
	}
	return System{Name: name, Scheme: scheme, Placements: placements, Quantity: quantity}, nil
}
