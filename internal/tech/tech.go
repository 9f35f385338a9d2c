// Package tech is the technology database of the cost model: for each
// process node it records the manufacturing parameters (defect
// density, cluster parameter, wafer price) and the NRE parameters
// (mask-set cost, design-cost factors, D2D interface design cost) that
// the paper's equations consume.
//
// The paper draws these numbers from a commercial database, public
// reports and in-house data (§4). Our defaults substitute documented
// public estimates with the same structure — the source notes in
// defaults.go record each substitution — and every experiment runs
// off ratios between them, which is what the public sources pin down.
// Users can supply their own table as JSON.
package tech

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"chipletactuary/internal/yield"
)

// ErrUnknownNode is wrapped by Database.Node when a process node is
// not in the database, so callers can classify lookup failures with
// errors.Is regardless of the message text.
var ErrUnknownNode = errors.New("unknown node")

// Node holds every per-process parameter the model needs.
type Node struct {
	// Name identifies the node, e.g. "7nm", "RDL", "SI".
	Name string `json:"name"`

	// --- manufacturing (RE) parameters ---

	// DefectDensity is D of Eq. (1) in defects/cm².
	DefectDensity float64 `json:"defect_density"`
	// Cluster is c of Eq. (1).
	Cluster float64 `json:"cluster"`
	// WaferCost is the price of one processed 300 mm wafer in USD.
	WaferCost float64 `json:"wafer_cost"`
	// BumpCostPerMM2 is the bumping cost per mm² of die area.
	BumpCostPerMM2 float64 `json:"bump_cost_per_mm2"`
	// SortCostPerMM2 is the wafer-sort (KGD test) cost per mm².
	SortCostPerMM2 float64 `json:"sort_cost_per_mm2"`

	// --- NRE parameters (Eq. 6) ---

	// Km is the module-design cost factor in USD/mm² (module design
	// and block verification).
	Km float64 `json:"km"`
	// Kc is the chip-level cost factor in USD/mm² (system
	// verification and chip physical design).
	Kc float64 `json:"kc"`
	// FixedChipNRE is C of Eq. (6): per-tapeout fixed cost such as the
	// full mask set and IP licensing, independent of area.
	FixedChipNRE float64 `json:"fixed_chip_nre"`
	// D2DNRE is the one-time cost of designing the die-to-die
	// interface for this node (C_D2D of Eq. 8).
	D2DNRE float64 `json:"d2d_nre"`

	// Interposer marks nodes that describe packaging-layer silicon
	// (RDL, silicon interposer) rather than logic processes.
	Interposer bool `json:"interposer,omitempty"`
}

// YieldModel returns the node's Negative Binomial yield model (Eq. 1).
// It and Yield take a pointer, as a Node is 96 bytes.
func (n *Node) YieldModel() yield.Model {
	return yield.NegBinomial{D: n.DefectDensity, C: n.Cluster}
}

// Yield is shorthand for YieldModel().Yield.
func (n *Node) Yield(areaMM2 float64) float64 {
	return n.YieldModel().Yield(areaMM2)
}

// WithDefectDensity returns a copy of the node with D replaced. The
// Figure 5 validation uses this to apply the early-production defect
// densities (0.13 for 7nm, 0.12 for 12nm) the paper quotes.
func (n Node) WithDefectDensity(d float64) Node {
	n.DefectDensity = d
	return n
}

// Validate checks the node parameters for physical plausibility. Every
// parameter must be finite: a NaN passes every range check below and
// would price each system on the node to NaN without an error.
func (n Node) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("tech: node with empty name")
	}
	for _, f := range [...]struct {
		name  string
		value float64
	}{
		{"defect_density", n.DefectDensity}, {"cluster", n.Cluster}, {"wafer_cost", n.WaferCost},
		{"bump_cost_per_mm2", n.BumpCostPerMM2}, {"sort_cost_per_mm2", n.SortCostPerMM2},
		{"km", n.Km}, {"kc", n.Kc}, {"fixed_chip_nre", n.FixedChipNRE}, {"d2d_nre", n.D2DNRE},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("tech: %s: %s must be finite, got %v", n.Name, f.name, f.value)
		}
	}
	if n.DefectDensity < 0 {
		return fmt.Errorf("tech: %s: negative defect density %v", n.Name, n.DefectDensity)
	}
	if n.Cluster <= 0 {
		return fmt.Errorf("tech: %s: cluster parameter must be positive, got %v", n.Name, n.Cluster)
	}
	if n.WaferCost <= 0 {
		return fmt.Errorf("tech: %s: wafer cost must be positive, got %v", n.Name, n.WaferCost)
	}
	if n.Km < 0 || n.Kc < 0 || n.FixedChipNRE < 0 || n.D2DNRE < 0 {
		return fmt.Errorf("tech: %s: NRE parameters must be non-negative", n.Name)
	}
	if n.BumpCostPerMM2 < 0 || n.SortCostPerMM2 < 0 {
		return fmt.Errorf("tech: %s: bump/sort costs must be non-negative", n.Name)
	}
	return nil
}

// Database is a named collection of nodes. Each node also has an id,
// its index in the order NewDatabase was given the nodes (Override
// keeps a replaced node's id and gives a new node the next one), so a
// memo table can name a node by a small integer instead of a string.
type Database struct {
	ids   map[string]int
	nodes []Node // by id
}

// NewDatabase builds a database from the given nodes, rejecting
// duplicates and invalid parameters.
func NewDatabase(nodes ...Node) (*Database, error) {
	db := &Database{ids: make(map[string]int, len(nodes)), nodes: make([]Node, 0, len(nodes))}
	for _, n := range nodes {
		if err := n.Validate(); err != nil {
			return nil, err
		}
		if _, dup := db.ids[n.Name]; dup {
			return nil, fmt.Errorf("tech: duplicate node %q", n.Name)
		}
		db.ids[n.Name] = len(db.nodes)
		db.nodes = append(db.nodes, n)
	}
	return db, nil
}

// Node looks a node up by name.
func (db *Database) Node(name string) (Node, error) {
	id, err := db.NodeID(name)
	if err != nil {
		return Node{}, err
	}
	return db.nodes[id], nil
}

// NodeID returns the id of the named node, or Node's error when the
// database has no such node.
func (db *Database) NodeID(name string) (int, error) {
	id, ok := db.ids[name]
	if !ok {
		return 0, fmt.Errorf("tech: %w %q (have %v)", ErrUnknownNode, name, db.Names())
	}
	return id, nil
}

// NodeByID returns the node with the given id, 0 ≤ id < Len(). The
// node is the database's own and is read-only: a caller must not write
// through the pointer. Hot paths look a node up by name once (NodeID)
// and then read it here, instead of copying it out with Node.
func (db *Database) NodeByID(id int) *Node { return &db.nodes[id] }

// Len returns the number of nodes; their ids are 0 … Len()-1.
func (db *Database) Len() int { return len(db.nodes) }

// MustNode is Node for static names known to exist; it panics on a
// missing node, which indicates a programming error, not user input.
func (db *Database) MustNode(name string) Node {
	n, err := db.Node(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Names returns the node names in sorted order.
func (db *Database) Names() []string {
	names := make([]string, 0, len(db.nodes))
	for _, n := range db.nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// Override returns a new database in which the named node is replaced
// (keeping its id) or, when the database has no node of that name,
// added. The original database is unchanged.
func (db *Database) Override(n Node) (*Database, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	out := &Database{ids: make(map[string]int, len(db.nodes)+1), nodes: slices.Clone(db.nodes)}
	for name, id := range db.ids {
		out.ids[name] = id
	}
	if id, ok := out.ids[n.Name]; ok {
		out.nodes[id] = n
	} else {
		out.ids[n.Name] = len(out.nodes)
		out.nodes = append(out.nodes, n)
	}
	return out, nil
}

// WriteJSON serializes the database (sorted by node name) to w.
func (db *Database) WriteJSON(w io.Writer) error {
	list := make([]Node, 0, len(db.nodes))
	for _, name := range db.Names() {
		list = append(list, db.nodes[db.ids[name]])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(list)
}

// ReadJSON parses a database from r.
func ReadJSON(r io.Reader) (*Database, error) {
	var list []Node
	if err := json.NewDecoder(r).Decode(&list); err != nil {
		return nil, fmt.Errorf("tech: decoding node list: %w", err)
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("tech: node list is empty")
	}
	return NewDatabase(list...)
}

// LoadFile reads a database from a JSON file.
func LoadFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tech: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}
