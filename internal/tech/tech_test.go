package tech

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipletactuary/internal/units"
)

func TestDefaultDatabaseValid(t *testing.T) {
	db := Default()
	want := []string{"10nm", "12nm", "14nm", "28nm", "3nm", "5nm", "65nm", "7nm", "RDL", "SI"}
	got := db.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range got {
		n := db.MustNode(name)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDefaultsMatchPaperDefectDensities(t *testing.T) {
	db := Default()
	cases := map[string]struct{ d, c float64 }{
		"3nm":  {0.20, 10},
		"5nm":  {0.11, 10},
		"7nm":  {0.09, 10},
		"14nm": {0.08, 10},
		"RDL":  {0.05, 3},
		"SI":   {0.06, 6},
	}
	for name, want := range cases {
		n := db.MustNode(name)
		if n.DefectDensity != want.d || n.Cluster != want.c {
			t.Errorf("%s: D=%v c=%v, want D=%v c=%v", name, n.DefectDensity, n.Cluster, want.d, want.c)
		}
	}
}

func TestCostMonotonicityAcrossNodes(t *testing.T) {
	// Newer nodes must be more expensive in every cost dimension —
	// this is the structural property all experiments rely on.
	db := Default()
	order := []string{"65nm", "28nm", "14nm", "12nm", "10nm", "7nm", "5nm", "3nm"}
	for i := 1; i < len(order); i++ {
		older := db.MustNode(order[i-1])
		newer := db.MustNode(order[i])
		if newer.WaferCost <= older.WaferCost {
			t.Errorf("wafer cost: %s (%v) should exceed %s (%v)", newer.Name, newer.WaferCost, older.Name, older.WaferCost)
		}
		if newer.Km <= older.Km || newer.Kc <= older.Kc {
			t.Errorf("design factors: %s should exceed %s", newer.Name, older.Name)
		}
		if newer.FixedChipNRE <= older.FixedChipNRE {
			t.Errorf("fixed NRE: %s should exceed %s", newer.Name, older.Name)
		}
	}
}

func TestNodeYield(t *testing.T) {
	n := Default().MustNode("5nm")
	if got := n.Yield(800); !units.ApproxEqual(got, 0.43022, 1e-4) {
		t.Errorf("5nm yield at 800mm² = %v, want ≈0.430", got)
	}
}

func TestWithDefectDensity(t *testing.T) {
	n := Default().MustNode("7nm")
	early := n.WithDefectDensity(0.13)
	if early.DefectDensity != 0.13 {
		t.Errorf("override failed: %v", early.DefectDensity)
	}
	if n.DefectDensity != 0.09 {
		t.Errorf("original mutated: %v", n.DefectDensity)
	}
	if early.WaferCost != n.WaferCost {
		t.Errorf("unrelated field changed")
	}
}

func TestNodeValidate(t *testing.T) {
	valid := Node{Name: "x", DefectDensity: 0.1, Cluster: 10, WaferCost: 1000}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid node rejected: %v", err)
	}
	bad := []Node{
		{Name: "", DefectDensity: 0.1, Cluster: 10, WaferCost: 1000},
		{Name: "x", DefectDensity: -0.1, Cluster: 10, WaferCost: 1000},
		{Name: "x", DefectDensity: 0.1, Cluster: 0, WaferCost: 1000},
		{Name: "x", DefectDensity: 0.1, Cluster: 10, WaferCost: 0},
		{Name: "x", DefectDensity: 0.1, Cluster: 10, WaferCost: 1000, Km: -1},
		{Name: "x", DefectDensity: 0.1, Cluster: 10, WaferCost: 1000, BumpCostPerMM2: -1},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: invalid node accepted: %+v", i, n)
		}
	}
}

func TestNewDatabaseRejectsDuplicates(t *testing.T) {
	n := Node{Name: "x", DefectDensity: 0.1, Cluster: 10, WaferCost: 1000}
	if _, err := NewDatabase(n, n); err == nil {
		t.Error("duplicate nodes accepted")
	}
}

func TestDatabaseNodeLookup(t *testing.T) {
	db := Default()
	if _, err := db.Node("7nm"); err != nil {
		t.Errorf("lookup 7nm: %v", err)
	}
	if _, err := db.Node("1nm"); err == nil {
		t.Error("lookup of unknown node should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNode on unknown node should panic")
		}
	}()
	db.MustNode("1nm")
}

func TestOverride(t *testing.T) {
	db := Default()
	mod := db.MustNode("7nm").WithDefectDensity(0.13)
	db2, err := db.Override(mod)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.MustNode("7nm").DefectDensity; got != 0.13 {
		t.Errorf("override not applied: %v", got)
	}
	if got := db.MustNode("7nm").DefectDensity; got != 0.09 {
		t.Errorf("original database mutated: %v", got)
	}
	if _, err := db.Override(Node{Name: ""}); err == nil {
		t.Error("invalid override accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := Default()
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Names() {
		a := db.MustNode(name)
		b, err := back.Node(name)
		if err != nil {
			t.Fatalf("%s missing after round trip", name)
		}
		if a != b {
			t.Errorf("%s changed in round trip:\n  a=%+v\n  b=%+v", name, a, b)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader("[]")); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`[{"name":"x","defect_density":-1,"cluster":10,"wafer_cost":1}]`)); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tech.json")
	var buf bytes.Buffer
	if err := Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Node("5nm"); err != nil {
		t.Errorf("loaded db missing 5nm: %v", err)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInterposerFlag(t *testing.T) {
	db := Default()
	for _, name := range []string{"RDL", "SI"} {
		if !db.MustNode(name).Interposer {
			t.Errorf("%s should be marked as interposer silicon", name)
		}
	}
	for _, name := range []string{"7nm", "5nm", "14nm"} {
		if db.MustNode(name).Interposer {
			t.Errorf("%s should not be marked as interposer silicon", name)
		}
	}
}

// TestNodeIDs checks that node ids follow NewDatabase's argument order,
// that Override keeps a replaced node's id and appends a new node, and
// that the original database is unchanged.
func TestNodeIDs(t *testing.T) {
	a, b := Default().MustNode("5nm"), Default().MustNode("7nm")
	db, err := NewDatabase(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for want, name := range []string{"5nm", "7nm"} {
		if id, err := db.NodeID(name); err != nil || id != want || db.NodeByID(id).Name != name {
			t.Fatalf("NodeID(%q) = %d, %v; want %d", name, id, err, want)
		}
	}
	if _, err := db.NodeID("3nm"); !errors.Is(err, ErrUnknownNode) || db.Len() != 2 {
		t.Fatalf("NodeID(3nm): %v; Len %d, want 2", err, db.Len())
	}
	cheap := b.WithDefectDensity(0.01)
	c := Default().MustNode("14nm")
	over, err := db.Override(cheap)
	if err != nil {
		t.Fatal(err)
	}
	if over, err = over.Override(c); err != nil {
		t.Fatal(err)
	}
	if id, _ := over.NodeID("7nm"); id != 1 || over.NodeByID(1).DefectDensity != 0.01 {
		t.Fatalf("replaced 7nm has id %d, D %v", id, over.NodeByID(1).DefectDensity)
	}
	if id, _ := over.NodeID("14nm"); id != 2 || over.Len() != 3 {
		t.Fatalf("added 14nm has id %d of %d", id, over.Len())
	}
	if db.Len() != 2 || db.NodeByID(1).DefectDensity != b.DefectDensity {
		t.Fatal("Override changed the original database")
	}
}
