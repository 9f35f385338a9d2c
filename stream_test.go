package actuary_test

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"chipletactuary"
)

func testGrid(areas []float64, counts []int) actuary.SweepGrid {
	return actuary.SweepGrid{
		Name:       "grid",
		Nodes:      []string{"5nm"},
		Schemes:    []actuary.Scheme{actuary.MCM},
		AreasMM2:   areas,
		Counts:     counts,
		Quantities: []float64{1_000_000},
		D2D:        actuary.D2DFraction(0.10),
	}
}

// countingSource wraps a RequestSource and counts how many requests
// have been pulled from it.
type countingSource struct {
	inner actuary.RequestSource
	mu    sync.Mutex
	calls int
}

func (c *countingSource) Next() (actuary.Request, bool) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Next()
}

func (c *countingSource) pulled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestStreamMatchesEvaluate runs the same sweep through the streaming
// and the materialized paths and compares every answer by ID.
func TestStreamMatchesEvaluate(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(4))
	grid := testGrid([]float64{300, 500, 800}, []int{1, 2, 3, 4})

	src, err := actuary.SweepSource(grid.Points(), actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Stream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[string]float64)
	for r := range ch {
		if r.Err != nil {
			t.Fatalf("streamed request %q failed: %v", r.ID, r.Err)
		}
		streamed[r.ID] = r.TotalCost.Total()
	}

	matSrc, err := actuary.SweepSource(grid.Points(), actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []actuary.Request
	for {
		r, ok := matSrc.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	if len(reqs) != grid.Size() {
		t.Fatalf("materialized %d requests, want %d", len(reqs), grid.Size())
	}
	for _, r := range s.Evaluate(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("materialized request %q failed: %v", r.ID, r.Err)
		}
		got, ok := streamed[r.ID]
		if !ok {
			t.Fatalf("streamed path missing %q", r.ID)
		}
		if got != r.TotalCost.Total() {
			t.Errorf("%q: streamed %v != materialized %v", r.ID, got, r.TotalCost.Total())
		}
	}
	if len(streamed) != len(reqs) {
		t.Errorf("streamed %d results, materialized %d", len(streamed), len(reqs))
	}
}

// TestStreamLazyGeneration proves generation is demand-driven: with a
// bounded in-flight window and a consumer that stops after one result,
// a huge source is barely touched.
func TestStreamLazyGeneration(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 50, 549, 1), []int{1, 2, 4, 8}) // 2000 candidate points
	inner, err := actuary.SweepSource(grid.Points(), actuary.QuestionRE, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{inner: inner}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := s.Stream(ctx, src, actuary.StreamInFlight(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ch; !ok {
		t.Fatal("stream closed before the first result")
	}
	cancel()
	for range ch { // drain so the workers exit
	}
	// The pump may run ahead by the in-flight window plus what the
	// workers grabbed, but never materializes the sweep.
	if pulled := src.pulled(); pulled > 64 {
		t.Errorf("consumed 1 of 2000 results but the source was pulled %d times", pulled)
	}
}

func mustAreaRange(t *testing.T, lo, hi, step float64) []float64 {
	t.Helper()
	axis, err := actuary.SweepAreaRange(lo, hi, step)
	if err != nil {
		t.Fatal(err)
	}
	return axis
}

// TestStreamAggregatorsMatchFullSort streams a sweep through CostTopK
// and CostPareto and checks them against sorting the materialized
// results.
func TestStreamAggregatorsMatchFullSort(t *testing.T) {
	s := newTestSession(t)
	grid := testGrid([]float64{200, 400, 600, 800}, []int{1, 2, 3, 4, 5})
	src, err := actuary.SweepSource(grid.Points(), actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Stream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	top := actuary.NewCostTopK(5)
	front := actuary.NewCostPareto()
	var stats actuary.StreamStats
	var all []actuary.Result
	for r := range ch {
		top.Observe(r)
		front.Observe(r)
		stats.Observe(r)
		if r.Err == nil {
			all = append(all, r)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TotalCost.Total() < all[j].TotalCost.Total() })
	got := top.Results()
	if len(got) != 5 {
		t.Fatalf("top-K kept %d, want 5", len(got))
	}
	for i := range got {
		if got[i].ID != all[i].ID {
			t.Errorf("top-%d = %q, want %q", i, got[i].ID, all[i].ID)
		}
	}
	// Every front member must be non-dominated within the full set.
	for _, f := range front.Front() {
		for _, o := range all {
			if o.TotalCost.RE.Total() <= f.TotalCost.RE.Total() &&
				o.TotalCost.NRE.Total() <= f.TotalCost.NRE.Total() &&
				(o.TotalCost.RE.Total() < f.TotalCost.RE.Total() ||
					o.TotalCost.NRE.Total() < f.TotalCost.NRE.Total()) {
				t.Errorf("front member %q is dominated by %q", f.ID, o.ID)
			}
		}
	}
	if stats.OK != len(all) || stats.Failed != 0 {
		t.Errorf("stats = %+v, want %d ok", stats, len(all))
	}
	if stats.Cost.MinID != all[0].ID {
		t.Errorf("summary min %q, want %q", stats.Cost.MinID, all[0].ID)
	}
}

// TestStreamCancellation cancels mid-stream and checks the channel
// closes without deadlock.
func TestStreamCancellation(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	grid := testGrid(mustAreaRange(t, 100, 599, 1), []int{1, 2})
	src, err := actuary.SweepSource(grid.Points(), actuary.QuestionRE, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := s.Stream(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range ch {
		n++
		if n == 10 {
			cancel()
		}
	}
	if n >= grid.Size() {
		t.Errorf("cancellation did not stop the stream: %d results of %d", n, grid.Size())
	}
}

// TestStreamErrors covers the nil-source and unsupported-question
// guards.
func TestStreamErrors(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Stream(context.Background(), nil); err == nil {
		t.Error("nil source accepted")
	}
	grid := testGrid([]float64{400}, []int{2})
	if _, err := actuary.SweepSource(grid.Points(), actuary.QuestionAreaCrossover, actuary.PerSystemUnit); err == nil {
		t.Error("SweepSource accepted a non-per-system question")
	}
}

// TestSweepSourceRejectsLean checks that SweepSource refuses a lean
// generator for every per-system question: lean points carry no
// System, so streaming them would price empty systems.
func TestSweepSourceRejectsLean(t *testing.T) {
	grid := testGrid([]float64{400}, []int{1, 2})
	for _, q := range []actuary.Question{actuary.QuestionTotalCost, actuary.QuestionRE, actuary.QuestionWafers} {
		if _, err := actuary.SweepSource(grid.Points().Lean(), q, actuary.PerSystemUnit); err == nil {
			t.Errorf("SweepSource accepted a lean generator for %v", q)
		}
	}
}

// TestSessionSweepBest answers the one-request whole-sweep question
// and cross-checks the winner against the materialized path.
func TestSessionSweepBest(t *testing.T) {
	s := newTestSession(t)
	grid := testGrid([]float64{300, 500, 700, 900}, []int{1, 2, 3, 4})
	r := s.Evaluate(context.Background(), []actuary.Request{{
		ID: "best", Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 3,
	}})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	b := r.SweepBest
	if b == nil || len(b.Top) != 3 {
		t.Fatalf("sweep-best payload: %+v", b)
	}
	for i := 1; i < len(b.Top); i++ {
		if b.Top[i].Total.Total() < b.Top[i-1].Total.Total() {
			t.Errorf("top points not sorted ascending at %d", i)
		}
	}
	// The 900 mm² monolithic point exceeds the reticle: pruned.
	if b.Pruned == 0 {
		t.Error("expected at least one reticle-pruned point")
	}
	for _, p := range b.Top {
		if p.AreaMM2 == 900 && p.K == 1 {
			t.Error("reticle-infeasible point survived into the top list")
		}
	}
	if b.Summary.Count != grid.Size()-b.Pruned-b.Deduped-b.Infeasible {
		t.Errorf("summary count %d inconsistent with %d points, %d pruned, %d deduped, %d infeasible",
			b.Summary.Count, grid.Size(), b.Pruned, b.Deduped, b.Infeasible)
	}
	if len(b.Pareto) == 0 {
		t.Error("empty Pareto front")
	}

	// The winner must agree with evaluating every surviving point.
	var reqs []actuary.Request
	gen := grid.Points(actuary.SweepReticleFit(), actuary.SweepInterposerFit(s.Packaging()))
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		reqs = append(reqs, actuary.Request{ID: p.ID, Question: actuary.QuestionTotalCost, System: p.System})
	}
	bestID, bestCost := "", 0.0
	for _, rr := range s.Evaluate(context.Background(), reqs) {
		if rr.Err != nil {
			continue
		}
		if bestID == "" || rr.TotalCost.Total() < bestCost {
			bestID, bestCost = rr.ID, rr.TotalCost.Total()
		}
	}
	if got := b.Top[0]; got.ID != bestID || got.Total.Total() != bestCost {
		t.Errorf("sweep-best winner %q (%v) != materialized winner %q (%v)",
			got.ID, got.Total.Total(), bestID, bestCost)
	}
}

// TestSessionSweepBestErrors covers the failure taxonomy of the
// sweep-best question.
func TestSessionSweepBestErrors(t *testing.T) {
	s := newTestSession(t)
	cases := []struct {
		name string
		req  actuary.Request
		want actuary.ErrorCode
	}{
		{"missing grid", actuary.Request{Question: actuary.QuestionSweepBest}, actuary.ErrInvalidConfig},
		{"invalid grid", actuary.Request{Question: actuary.QuestionSweepBest,
			Grid: &actuary.SweepGrid{Name: "empty"}}, actuary.ErrInvalidConfig},
		{"nothing feasible", func() actuary.Request {
			g := testGrid([]float64{2000}, []int{1}) // far beyond the reticle
			return actuary.Request{Question: actuary.QuestionSweepBest, Grid: &g}
		}(), actuary.ErrInfeasible},
		{"unknown node", func() actuary.Request {
			g := testGrid([]float64{400}, []int{2})
			g.Nodes = []string{"1nm-imaginary"}
			return actuary.Request{Question: actuary.QuestionSweepBest, Grid: &g}
		}(), actuary.ErrUnknownNode}, // the first per-point cause keeps the taxonomy
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := s.Evaluate(context.Background(), []actuary.Request{tc.req})[0]
			ae, ok := actuary.AsError(r.Err)
			if !ok {
				t.Fatalf("want a structured error, got %v", r.Err)
			}
			if ae.Code != tc.want {
				t.Errorf("code %v, want %v", ae.Code, tc.want)
			}
		})
	}
}

// TestScenarioSourceMatchesRequests drains the lazy source and
// compares it request-by-request with the materialized batch.
func TestScenarioSourceMatchesRequests(t *testing.T) {
	cfg := actuary.ScenarioConfig{
		Name:      "both-paths",
		Questions: []string{"total-cost", "wafers", "crossover-quantity", "optimal-chiplet-count", "sweep-best"},
		Systems: []actuary.SystemConfig{{
			Name: "explicit", Scheme: "MCM", Quantity: 1000,
			Chiplets: []actuary.ChipletConfig{{Name: "c", Node: "7nm", ModuleAreaMM2: 100, Count: 2}},
		}},
		Sweeps: []actuary.SweepConfig{{
			Name: "sw", Node: "5nm", Scheme: "MCM", D2DFraction: 0.10,
			Quantity: 1_000_000, AreasMM2: []float64{400, 800}, Counts: []int{1, 2, 4},
		}},
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	src, err := cfg.Source()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range reqs {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("source exhausted at %d of %d", i, len(reqs))
		}
		if got.ID != want.ID || got.Question != want.Question {
			t.Errorf("request %d: source %q/%v, slice %q/%v", i, got.ID, got.Question, want.ID, want.Question)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("source yields more requests than the materialized batch")
	}
	// The new question emits one request per sweep.
	found := false
	for _, r := range reqs {
		if r.Question == actuary.QuestionSweepBest {
			found = true
			if r.ID != "sw/sweep-best" || r.Grid == nil {
				t.Errorf("sweep-best request malformed: %+v", r)
			}
		}
	}
	if !found {
		t.Error("scenario lost the sweep-best question")
	}
}

// TestStreamHugeSweep pushes a 100k-point scenario sweep through
// Session.Stream with O(K) aggregation — the acceptance check that
// sweep size no longer implies materialization.
func TestStreamHugeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point sweep is slow; run without -short")
	}
	cfg := actuary.ScenarioConfig{
		Name: "huge",
		Sweeps: []actuary.SweepConfig{{
			Name: "huge", Node: "5nm", Scheme: "MCM", D2DFraction: 0.10,
			Quantity:   1_000_000,
			AreaRange:  &actuary.AreaRangeConfig{LoMM2: 50, HiMM2: 674.95, StepMM2: 0.05},
			CountRange: &actuary.CountRangeConfig{Lo: 1, Hi: 8},
		}},
	}
	src, err := cfg.Source()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t)
	ch, err := s.Stream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	top := actuary.NewCostTopK(10)
	var stats actuary.StreamStats
	n := actuary.Reduce(ch, top, &stats)
	if n != 100_000 {
		t.Fatalf("streamed %d results, want 100000", n)
	}
	if stats.Failed != 0 {
		t.Errorf("%d requests failed", stats.Failed)
	}
	got := top.Results()
	if len(got) != 10 {
		t.Fatalf("top-10 kept %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].TotalCost.Total() < got[i-1].TotalCost.Total() {
			t.Errorf("top list not sorted at %d", i)
		}
	}
	if !strings.HasPrefix(got[0].ID, "huge-") {
		t.Errorf("unexpected winner ID %q", got[0].ID)
	}
}

// TestAggregatorsUnpackSweepBest checks whole-sweep answers feed the
// stream aggregators point by point, so -top/-pareto work on
// sweep-best-only scenarios.
func TestAggregatorsUnpackSweepBest(t *testing.T) {
	s := newTestSession(t)
	grid := testGrid([]float64{300, 500, 700}, []int{1, 2, 4})
	r := s.Evaluate(context.Background(), []actuary.Request{{
		ID: "sw/sweep-best", Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4,
	}})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	top := actuary.NewCostTopK(2)
	front := actuary.NewCostPareto()
	var stats actuary.StreamStats
	for _, agg := range []actuary.StreamAggregator{top, front, &stats} {
		agg.Observe(r)
	}
	got := top.Results()
	if len(got) != 2 {
		t.Fatalf("top kept %d results", len(got))
	}
	for i, want := range r.SweepBest.Top[:2] {
		if got[i].ID != want.ID || got[i].TotalCost.Total() != want.Total.Total() {
			t.Errorf("top[%d] = %q (%v), want %q (%v)", i, got[i].ID,
				got[i].TotalCost.Total(), want.ID, want.Total.Total())
		}
	}
	if len(front.Front()) != len(r.SweepBest.Pareto) {
		t.Errorf("front size %d, want %d", len(front.Front()), len(r.SweepBest.Pareto))
	}
	if stats.OK != 1 || stats.Skipped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Cost.Count != r.SweepBest.Summary.Count || stats.Cost.MinID != r.SweepBest.Summary.MinID {
		t.Errorf("summary not merged: %+v vs %+v", stats.Cost, r.SweepBest.Summary)
	}
}

// TestStreamSpecOptions pins the StreamSpec-to-option translation: a
// zero spec contributes nothing (session defaults apply untouched)
// and a populated spec streams exactly as the equivalent explicit
// option list — the contract that lets server, client.Local and the
// fleet stream coordinator share one tuning struct.
func TestStreamSpecOptions(t *testing.T) {
	if opts := (actuary.StreamSpec{}).Options(); len(opts) != 0 {
		t.Fatalf("zero spec yields %d options", len(opts))
	}
	full := actuary.StreamSpec{InFlight: 3, SlabSize: 2, ResumeAt: 4, Ordered: true}
	if opts := full.Options(); len(opts) != 4 {
		t.Fatalf("full spec yields %d options, want 4", len(opts))
	}

	s := newTestSession(t, actuary.WithWorkers(4))
	grid := testGrid([]float64{300, 500, 800}, []int{1, 2, 3, 4})
	drain := func(opts ...actuary.StreamOption) []actuary.Result {
		t.Helper()
		src, err := actuary.SweepSource(grid.Points(), actuary.QuestionTotalCost, actuary.PerSystemUnit)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := s.Stream(context.Background(), src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var out []actuary.Result
		for r := range ch {
			out = append(out, r)
		}
		return out
	}
	spec := actuary.StreamSpec{InFlight: 2, ResumeAt: 4, Ordered: true}
	viaSpec := drain(spec.Options()...)
	explicit := drain(actuary.StreamInFlight(2), actuary.StreamResumeAt(4), actuary.StreamOrdered())
	if len(viaSpec) != len(explicit) || len(viaSpec) == 0 {
		t.Fatalf("spec stream has %d results, explicit %d", len(viaSpec), len(explicit))
	}
	for i := range viaSpec {
		if viaSpec[i].ID != explicit[i].ID || viaSpec[i].Index != explicit[i].Index {
			t.Errorf("result %d: spec %q@%d, explicit %q@%d", i,
				viaSpec[i].ID, viaSpec[i].Index, explicit[i].ID, explicit[i].Index)
		}
	}
	if viaSpec[0].Index != 4 {
		t.Errorf("resumed stream starts at index %d, want 4", viaSpec[0].Index)
	}
}
