package system

import (
	"fmt"
	"strconv"
	"strings"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

// Monolithic builds an SoC system: one die carrying a single module of
// the given area, no D2D interface. The die and module names
// (name+"-die", name+"-logic") are two slices of one string, so the
// system costs three allocations; retaining either name keeps the
// other alive.
func Monolithic(name, node string, moduleAreaMM2, quantity float64) System {
	names := name + "-die" + name + "-logic"
	die := len(name) + len("-die")
	return System{
		Name:   name,
		Scheme: packaging.SoC,
		Placements: []Placement{{
			Chiplet: Chiplet{
				Name:    names[:die],
				Node:    node,
				Modules: []Module{{Name: names[die:], AreaMM2: moduleAreaMM2, Scalable: true}},
				D2D:     dtod.None{},
			},
			Count: 1,
		}},
		Quantity: quantity,
	}
}

// PartitionEqual re-partitions a monolithic module area into k
// distinct chiplets of equal module area, each carrying the D2D
// overhead, integrated by the given scheme. This is the §4.1
// experiment setup ("we divide a monolithic chip into different
// numbers of chiplets ... no reuse is utilized"): each chiplet is a
// separate design, so each pays its own chip NRE.
//
// Chiplet i is named name+"-chiplet-i" and its module name+"-part-i".
// All 2k names are slices of one string, so a system costs three
// allocations whatever k is (placements, modules, names); retaining
// any one name — a Breakdown.Dies[i].Name, say — keeps the other
// names of the system alive.
func PartitionEqual(name, node string, moduleAreaMM2 float64, k int,
	scheme packaging.Scheme, d2d dtod.Overhead, quantity float64) (System, error) {
	if k < 1 {
		return System{}, fmt.Errorf("system: partition count %d must be ≥ 1", k)
	}
	if moduleAreaMM2 <= 0 {
		return System{}, fmt.Errorf("system: module area %v must be positive", moduleAreaMM2)
	}
	if k == 1 && scheme == packaging.SoC {
		return Monolithic(name, node, moduleAreaMM2, quantity), nil
	}
	if scheme == packaging.SoC {
		return System{}, fmt.Errorf("system: cannot partition into %d chiplets on an SoC", k)
	}
	per := moduleAreaMM2 / float64(k)
	placements := make([]Placement, k)
	modules := make([]Module, k)
	// Grown to the exact size up front, the builder never reallocates,
	// and String() is a view of its one buffer: names sliced from it
	// mid-build stay valid because written bytes are never rewritten.
	var names strings.Builder
	names.Grow(k*(2*len(name)+len("-chiplet-")+len("-part-")) + 2*digitsUpTo(k))
	var num [20]byte
	for i := range placements {
		seq := strconv.AppendInt(num[:0], int64(i+1), 10)
		start := names.Len()
		names.WriteString(name)
		names.WriteString("-chiplet-")
		names.Write(seq)
		mid := names.Len()
		names.WriteString(name)
		names.WriteString("-part-")
		names.Write(seq)
		all := names.String()
		modules[i] = Module{Name: all[mid:], AreaMM2: per, Scalable: true}
		placements[i] = Placement{
			Chiplet: Chiplet{
				Name:    all[start:mid],
				Node:    node,
				Modules: modules[i : i+1 : i+1],
				D2D:     d2d,
			},
			Count: 1,
		}
	}
	return System{Name: name, Scheme: scheme, Placements: placements, Quantity: quantity}, nil
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
