package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/packaging"
)

func testGrid() Grid {
	return Grid{
		Name:       "g",
		Nodes:      []string{"5nm"},
		Schemes:    []packaging.Scheme{packaging.MCM},
		AreasMM2:   []float64{400, 800},
		Counts:     []int{1, 2, 4},
		Quantities: []float64{1_000_000},
		D2D:        dtod.Fraction{F: 0.10},
	}
}

func drain(t *testing.T, it *Generator) []Point {
	t.Helper()
	var out []Point
	for {
		p, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func TestGridPointsLazyExpansion(t *testing.T) {
	g := testGrid()
	if got := g.Size(); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
	pts := drain(t, g.Points())
	if len(pts) != 6 {
		t.Fatalf("generated %d points, want 6", len(pts))
	}
	// Area-outer, count-inner traversal with the v2 scenario's ID
	// convention; k = 1 collapses to a monolithic SoC.
	wantIDs := []string{"g-a400-k1", "g-a400-k2", "g-a400-k4", "g-a800-k1", "g-a800-k2", "g-a800-k4"}
	for i, p := range pts {
		if p.ID != wantIDs[i] {
			t.Errorf("point %d ID = %q, want %q", i, p.ID, wantIDs[i])
		}
		wantScheme := packaging.MCM
		if p.K == 1 {
			wantScheme = packaging.SoC
		}
		if p.Scheme != wantScheme || p.System.Scheme != wantScheme {
			t.Errorf("point %s scheme = %v, want %v", p.ID, p.Scheme, wantScheme)
		}
		if p.System.DieCount() != p.K {
			t.Errorf("point %s has %d dies, want %d", p.ID, p.System.DieCount(), p.K)
		}
		if p.System.Quantity != 1_000_000 {
			t.Errorf("point %s lost its quantity", p.ID)
		}
	}
	if st := g.Points().Stats(); st.Generated != 0 || st.Pruned != 0 {
		t.Errorf("fresh generator has non-zero stats: %+v", st)
	}
}

func TestGridMultiAxisIDs(t *testing.T) {
	g := testGrid()
	g.Nodes = []string{"5nm", "7nm"}
	g.Schemes = []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD}
	g.Quantities = []float64{1000, 2000}
	pts := drain(t, g.Points())
	// 2 nodes × 2 schemes × 2 quantities × 2 areas × 3 counts, minus
	// the scheme-independent k=1 monolithic points which are emitted
	// once per (node, quantity, area) instead of once per scheme.
	if want := 2*2*2*2*3 - 2*2*2; len(pts) != want {
		t.Fatalf("generated %d points, want %d", len(pts), want)
	}
	seen := make(map[string]bool)
	for _, p := range pts {
		if seen[p.ID] {
			t.Fatalf("duplicate point ID %q across a multi-axis grid", p.ID)
		}
		seen[p.ID] = true
	}
	// k=1 points carry the SoC label; multi-chip points their scheme.
	for _, want := range []string{"g-5nm-SoC-q1000-a400-k1", "g-5nm-MCM-q1000-a400-k2", "g-7nm-2.5D-q2000-a800-k4"} {
		if !seen[want] {
			t.Errorf("multi-axis ID %q missing", want)
		}
	}
	for _, p := range pts {
		if p.K == 1 && p.Scheme != packaging.SoC {
			t.Errorf("monolithic point %q not SoC", p.ID)
		}
	}
	// The skipped monolithic twins are counted as deduped, not pruned.
	gen := g.Points()
	drain(t, gen)
	if st := gen.Stats(); st.Deduped != 2*2*2 || st.Pruned != 0 {
		t.Errorf("stats = %+v, want 8 deduped / 0 pruned", st)
	}
}

func TestGridReticlePruning(t *testing.T) {
	g := testGrid()
	g.AreasMM2 = []float64{900} // monolithic die beyond the 858 mm² reticle
	gen := g.Points(ReticleFit())
	pts := drain(t, gen)
	for _, p := range pts {
		if p.K == 1 {
			t.Errorf("reticle-infeasible monolithic point %q survived pruning", p.ID)
		}
	}
	st := gen.Stats()
	if st.Pruned != 1 || st.Generated != len(pts) {
		t.Errorf("stats = %+v, want 1 pruned / %d generated", st, len(pts))
	}
	// Without the filter the point is generated (the paper models
	// over-reticle SoCs deliberately).
	if got := len(drain(t, g.Points())); got != 3 {
		t.Errorf("unfiltered grid generated %d points, want 3", got)
	}
}

func TestGridInterposerPruning(t *testing.T) {
	params := packaging.DefaultParams()
	g := testGrid()
	g.Schemes = []packaging.Scheme{packaging.TwoPointFiveD}
	g.Counts = []int{4}
	// 4 chiplets of 2400/4 = 600 mm² module area + D2D ⇒ interposer
	// estimate far beyond MaxInterposerMM2 (2500 mm²).
	g.AreasMM2 = []float64{2400}
	if pts := drain(t, g.Points(InterposerFit(params))); len(pts) != 0 {
		t.Errorf("interposer-infeasible points survived: %d", len(pts))
	}
	// MCM points of the same geometry pass (no interposer).
	g.Schemes = []packaging.Scheme{packaging.MCM}
	if pts := drain(t, g.Points(InterposerFit(params))); len(pts) != 1 {
		t.Errorf("substrate-only points pruned by the interposer filter: %d", len(pts))
	}
}

func TestGridPrunesUnbuildableCombos(t *testing.T) {
	// An SoC scheme cannot host multi-chip counts: those combinations
	// are pruned, not fatal, matching the explore layer's behaviour.
	g := testGrid()
	g.Schemes = []packaging.Scheme{packaging.SoC}
	gen := g.Points()
	pts := drain(t, gen)
	if len(pts) != 2 { // the two k=1 points
		t.Fatalf("generated %d points, want 2", len(pts))
	}
	if st := gen.Stats(); st.Pruned != 4 {
		t.Errorf("pruned %d, want 4", st.Pruned)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Grid)
	}{
		{"no nodes", func(g *Grid) { g.Nodes = nil }},
		{"empty node", func(g *Grid) { g.Nodes = []string{""} }},
		{"no schemes", func(g *Grid) { g.Schemes = nil }},
		{"no areas", func(g *Grid) { g.AreasMM2 = nil }},
		{"bad area", func(g *Grid) { g.AreasMM2 = []float64{-4} }},
		{"no counts", func(g *Grid) { g.Counts = nil }},
		{"bad count", func(g *Grid) { g.Counts = []int{0} }},
		{"no quantities", func(g *Grid) { g.Quantities = nil }},
		{"bad quantity", func(g *Grid) { g.Quantities = []float64{0} }},
		{"soc multichip", func(g *Grid) { g.Schemes = []packaging.Scheme{packaging.SoC} }},
		{"duplicate node", func(g *Grid) { g.Nodes = []string{"5nm", "5nm"} }},
		{"duplicate scheme", func(g *Grid) { g.Schemes = []packaging.Scheme{packaging.MCM, packaging.MCM} }},
		{"duplicate area", func(g *Grid) { g.AreasMM2 = []float64{400, 400} }},
		{"duplicate count", func(g *Grid) { g.Counts = []int{2, 2} }},
		{"duplicate quantity", func(g *Grid) { g.Quantities = []float64{5, 5} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGrid()
			tc.mutate(&g)
			if err := g.Validate(); err == nil {
				t.Errorf("invalid grid accepted")
			}
		})
	}
	g := testGrid()
	if err := g.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

// TestGridValidateDuplicateAxisOrder checks that a grid duplicating
// several axes always names the first in axis order (nodes, schemes,
// areas, counts, quantities), call after call.
func TestGridValidateDuplicateAxisOrder(t *testing.T) {
	cases := []struct {
		mutate func(*Grid)
		axis   string
	}{
		{func(g *Grid) { g.Nodes = []string{"5nm", "5nm"}; g.AreasMM2 = []float64{400, 400} }, "nodes"},
		{func(g *Grid) {
			g.Schemes = []packaging.Scheme{packaging.MCM, packaging.MCM}
			g.Quantities = []float64{5, 5}
		}, "schemes"},
		{func(g *Grid) {
			g.AreasMM2 = []float64{400, 400}
			g.Counts = []int{2, 2}
			g.Quantities = []float64{5, 5}
		}, "areas"},
		{func(g *Grid) { g.Counts = []int{2, 2}; g.Quantities = []float64{5, 5} }, "counts"},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mutate(&g)
		want := fmt.Sprintf("sweep: grid %q has duplicate %s entries", g.Name, tc.axis)
		for i := 0; i < 200; i++ {
			if err := g.Validate(); err == nil || err.Error() != want {
				t.Fatalf("call %d: Validate() = %v, want %q", i, err, want)
			}
		}
	}
}

func TestAreaRange(t *testing.T) {
	axis, err := AreaRange(100, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 3 || axis[0] != 100 || axis[2] != 300 {
		t.Errorf("AreaRange = %v", axis)
	}
	for _, bad := range [][3]float64{{300, 100, 50}, {0, 100, 50}, {100, 300, 0}, {100, 300, -5}} {
		if _, err := AreaRange(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("AreaRange(%v) accepted", bad)
		}
	}
}

func TestCountRange(t *testing.T) {
	axis, err := CountRange(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(axis) != 4 || axis[0] != 1 || axis[3] != 4 {
		t.Errorf("CountRange = %v", axis)
	}
	for _, bad := range [][2]int{{4, 1}, {0, 3}} {
		if _, err := CountRange(bad[0], bad[1]); err == nil {
			t.Errorf("CountRange(%v) accepted", bad)
		}
	}
}

// TestGeneratorShardPartition is the sharding property test: for
// random grids and every shard count 1..7, the shards are pairwise
// disjoint, their multiset union is exactly the unsharded walk, and
// per-shard stats (including the exactly-once dedup accounting) sum to
// the unsharded stats.
func TestGeneratorShardPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodePool := []string{"5nm", "7nm", "12nm", "28nm"}
	schemePool := []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD, packaging.InFO}
	pick := func(n int) int { return 1 + rng.Intn(n) }
	for trial := 0; trial < 12; trial++ {
		g := Grid{
			Name:       fmt.Sprintf("rand%d", trial),
			Nodes:      append([]string(nil), nodePool[:pick(len(nodePool))]...),
			Schemes:    append([]packaging.Scheme(nil), schemePool[:pick(len(schemePool))]...),
			Quantities: []float64{1e5, 1e6, 1e7}[:pick(3)],
			D2D:        dtod.Fraction{F: 0.10},
		}
		for i := 0; i < pick(5); i++ {
			g.AreasMM2 = append(g.AreasMM2, 100+float64(i)*190) // up to 860: some over-reticle
		}
		for k := 1; k <= pick(6); k++ {
			g.Counts = append(g.Counts, k)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random grid: %v", trial, err)
		}
		var filters []Filter
		if trial%2 == 0 {
			filters = []Filter{ReticleFit()}
		}
		whole := g.Points(filters...)
		wholePts := drain(t, whole)
		wantIDs := make(map[string]int)
		for _, p := range wholePts {
			wantIDs[p.ID]++
		}
		for n := 1; n <= 7; n++ {
			gotIDs := make(map[string]int)
			var stats Stats
			for i := 0; i < n; i++ {
				shard := g.Points(filters...).Shard(i, n)
				for _, p := range drain(t, shard) {
					gotIDs[p.ID]++
				}
				stats.Merge(shard.Stats())
			}
			for id, c := range gotIDs {
				if c != 1 {
					t.Fatalf("trial %d n=%d: point %q emitted by %d shards", trial, n, id, c)
				}
			}
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("trial %d n=%d: union has %d points, unsharded %d", trial, n, len(gotIDs), len(wantIDs))
			}
			for id := range wantIDs {
				if gotIDs[id] != 1 {
					t.Fatalf("trial %d n=%d: point %q missing from the shard union", trial, n, id)
				}
			}
			if whole := whole.Stats(); stats != whole {
				t.Fatalf("trial %d n=%d: summed shard stats %+v != unsharded %+v", trial, n, stats, whole)
			}
			// Merged TopK and Pareto over shard streams must reproduce
			// the unsharded aggregates exactly. The synthetic cost has
			// deliberate collisions (k alone), so the tie-break carries
			// the determinism.
			cost := func(p Point) float64 { return float64(p.K) }
			obj := func(p Point) (float64, float64) { return float64(p.K), p.AreaMM2 }
			id := func(p Point) string { return p.ID }
			wantTop := NewTopK(3, cost).TieBreak(id)
			wantFront := NewPareto(obj).TieBreak(id)
			var wantSum Summary
			for _, p := range wholePts {
				wantTop.Observe(p)
				wantFront.Observe(p)
				wantSum.Observe(p.ID, cost(p))
			}
			gotTop := NewTopK(3, cost).TieBreak(id)
			gotFront := NewPareto(obj).TieBreak(id)
			var gotSum Summary
			for i := 0; i < n; i++ {
				shardTop := NewTopK(3, cost).TieBreak(id)
				shardFront := NewPareto(obj).TieBreak(id)
				var shardSum Summary
				for _, p := range drain(t, g.Points(filters...).Shard(i, n)) {
					shardTop.Observe(p)
					shardFront.Observe(p)
					shardSum.Observe(p.ID, cost(p))
				}
				gotTop.Merge(shardTop)
				gotFront.Merge(shardFront)
				gotSum.Merge(shardSum)
			}
			if !samePointIDs(gotTop.Sorted(), wantTop.Sorted()) {
				t.Fatalf("trial %d n=%d: merged TopK %v != unsharded %v",
					trial, n, pointIDs(gotTop.Sorted()), pointIDs(wantTop.Sorted()))
			}
			if gotTop.Seen() != wantTop.Seen() {
				t.Fatalf("trial %d n=%d: merged TopK saw %d, unsharded %d", trial, n, gotTop.Seen(), wantTop.Seen())
			}
			if !samePointIDs(gotFront.Front(), wantFront.Front()) {
				t.Fatalf("trial %d n=%d: merged Pareto %v != unsharded %v",
					trial, n, pointIDs(gotFront.Front()), pointIDs(wantFront.Front()))
			}
			if gotSum.Count != wantSum.Count || gotSum.Min != wantSum.Min || gotSum.Max != wantSum.Max ||
				gotSum.MinID != wantSum.MinID || gotSum.MaxID != wantSum.MaxID {
				t.Fatalf("trial %d n=%d: merged summary %+v != unsharded %+v", trial, n, gotSum, wantSum)
			}
		}
	}
}

func pointIDs(pts []Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

func samePointIDs(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func TestGeneratorShardDedupExactlyOnce(t *testing.T) {
	// Multi-scheme grid with k=1 points: each skipped monolithic twin
	// must be counted deduped in exactly one shard, so the summed
	// Deduped equals the unsharded count.
	g := testGrid()
	g.Schemes = []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD, packaging.InFO}
	whole := g.Points()
	drain(t, whole)
	want := whole.Stats()
	if want.Deduped == 0 {
		t.Fatal("test grid produced no deduped twins")
	}
	for n := 2; n <= 5; n++ {
		var got Stats
		for i := 0; i < n; i++ {
			shard := g.Points().Shard(i, n)
			drain(t, shard)
			got.Merge(shard.Stats())
		}
		if got != want {
			t.Errorf("n=%d: summed stats %+v, want %+v", n, got, want)
		}
	}
}

func TestGeneratorShardValidation(t *testing.T) {
	g := testGrid()
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			g.Points().Shard(bad[0], bad[1])
		}()
	}
	// Shard(0, 1) is the identity.
	if got, want := len(drain(t, g.Points().Shard(0, 1))), len(drain(t, g.Points())); got != want {
		t.Errorf("Shard(0,1) generated %d points, want %d", got, want)
	}
}

// TestOdometerSeek checks that Seek(n) lands exactly where n calls to
// advance would, for every position of a mixed-radix product, and that
// out-of-range positions exhaust the odometer.
func TestOdometerSeek(t *testing.T) {
	lens := []int{3, 1, 4, 2}
	size := 3 * 1 * 4 * 2
	walked := NewOdometer(lens...)
	for n := 0; n <= size; n++ {
		sought := NewOdometer(lens...)
		sought.Seek(n)
		want, wantOK := walked.Next()
		got, gotOK := sought.Next()
		if gotOK != wantOK {
			t.Fatalf("Seek(%d): ok = %v, walk says %v", n, gotOK, wantOK)
		}
		if wantOK && fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Seek(%d) = %v, walk says %v", n, got, want)
		}
	}
	past := NewOdometer(lens...)
	past.Seek(size + 5)
	if _, ok := past.Next(); ok {
		t.Fatal("Seek past the end should exhaust the odometer")
	}
	// Seeking backward after being exhausted revives the walk.
	past.Seek(0)
	if _, ok := past.Next(); !ok {
		t.Fatal("Seek(0) after exhaustion should revive the odometer")
	}
}

// TestGeneratorCursorResume is the cursor property: for random grids,
// shard specs and interrupt points, draining a prefix, snapshotting
// the cursor, and restoring it into a fresh generator continues with
// exactly the remaining points and ends with identical stats.
func TestGeneratorCursorResume(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nodePool := []string{"5nm", "7nm", "12nm", "28nm"}
	schemePool := []packaging.Scheme{packaging.MCM, packaging.TwoPointFiveD, packaging.InFO}
	pick := func(n int) int { return 1 + rng.Intn(n) }
	for trial := 0; trial < 10; trial++ {
		g := Grid{
			Name:       fmt.Sprintf("cur%d", trial),
			Nodes:      append([]string(nil), nodePool[:pick(len(nodePool))]...),
			Schemes:    append([]packaging.Scheme(nil), schemePool[:pick(len(schemePool))]...),
			Quantities: []float64{1e5, 1e6}[:pick(2)],
			D2D:        dtod.Fraction{F: 0.10},
		}
		for i := 0; i < pick(5); i++ {
			g.AreasMM2 = append(g.AreasMM2, 100+float64(i)*190)
		}
		for k := 1; k <= pick(6); k++ {
			g.Counts = append(g.Counts, k)
		}
		var filters []Filter
		if trial%2 == 0 {
			filters = []Filter{ReticleFit()}
		}
		for n := 1; n <= 3; n++ {
			shard := rng.Intn(n)
			fresh := func() *Generator {
				gen := g.Points(filters...)
				if n > 1 {
					gen.Shard(shard, n)
				}
				return gen
			}
			whole := fresh()
			wholePts := drain(t, whole)
			prefixLen := rng.Intn(len(wholePts) + 1)

			first := fresh()
			var prefix []Point
			for i := 0; i < prefixLen; i++ {
				p, ok := first.Next()
				if !ok {
					t.Fatalf("trial %d: prefix exhausted early", trial)
				}
				prefix = append(prefix, p)
			}
			cur := first.Cursor()
			resumed, err := fresh().Restore(cur)
			if err != nil {
				t.Fatalf("trial %d: Restore: %v", trial, err)
			}
			rest := drain(t, resumed)
			if len(prefix)+len(rest) != len(wholePts) {
				t.Fatalf("trial %d n=%d: prefix %d + rest %d != whole %d",
					trial, n, len(prefix), len(rest), len(wholePts))
			}
			for i, p := range append(prefix, rest...) {
				if p.ID != wholePts[i].ID {
					t.Fatalf("trial %d n=%d: point %d = %q, uninterrupted walk has %q",
						trial, n, i, p.ID, wholePts[i].ID)
				}
			}
			if resumed.Stats() != whole.Stats() {
				t.Fatalf("trial %d n=%d: resumed stats %+v != uninterrupted %+v",
					trial, n, resumed.Stats(), whole.Stats())
			}
			if resumed.Cursor() != whole.Cursor() {
				t.Fatalf("trial %d n=%d: resumed cursor %+v != uninterrupted %+v",
					trial, n, resumed.Cursor(), whole.Cursor())
			}
		}
	}
}

// TestGeneratorRestoreRejectsBadCursors covers the restore guard
// rails: restore after Next, out-of-range candidates, and stats that
// cannot belong to the claimed position.
func TestGeneratorRestoreRejectsBadCursors(t *testing.T) {
	g := testGrid()
	started := g.Points()
	started.Next()
	if _, err := started.Restore(Cursor{}); err == nil {
		t.Fatal("Restore after Next should fail")
	}
	cases := []Cursor{
		{Candidate: -1},
		{Candidate: g.Size() + 1},
		{Candidate: 2, Stats: Stats{Generated: -1}},
		{Candidate: 2, Stats: Stats{Generated: 2, Pruned: 1}},
	}
	for _, cur := range cases {
		if _, err := g.Points().Restore(cur); err == nil {
			t.Fatalf("Restore(%+v) should fail", cur)
		}
	}
	// The boundary cursor (everything consumed) is legal and yields an
	// exhausted walk.
	done := g.Points()
	drain(t, done)
	resumed, err := g.Points().Restore(done.Cursor())
	if err != nil {
		t.Fatalf("Restore at exhaustion: %v", err)
	}
	if pts := drain(t, resumed); len(pts) != 0 {
		t.Fatalf("restored-at-exhaustion walk yielded %d points", len(pts))
	}
}

// TestStatsCursorWireRoundTrip checks the canonical JSON forms of
// Stats and Cursor: exact round trip, strict unknown-field rejection.
func TestStatsCursorWireRoundTrip(t *testing.T) {
	cur := Cursor{Candidate: 42, Stats: Stats{Generated: 30, Pruned: 10, Deduped: 2}}
	data, err := json.Marshal(cur)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Cursor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != cur {
		t.Fatalf("round trip %+v != %+v", back, cur)
	}
	if err := json.Unmarshal([]byte(`{"candidate":1,"stats":{},"bogus":true}`), &back); err == nil {
		t.Fatal("unknown cursor field should be rejected")
	}
	var st Stats
	if err := json.Unmarshal([]byte(`{"generated":1,"bogus":2}`), &st); err == nil {
		t.Fatal("unknown stats field should be rejected")
	}
}
