package distribute

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipletactuary"
	"chipletactuary/client"
	"chipletactuary/server"
)

// testGrid exercises every accounting path: multi-scheme dedup of the
// k=1 twins, reticle pruning (860 mm² monolithic dies), and plain
// feasible points.
func testGrid() actuary.SweepGrid {
	return actuary.SweepGrid{
		Name:       "dist",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   []float64{200, 500, 860},
		Counts:     []int{1, 2, 3, 4},
		Quantities: []float64{1_000_000},
		D2D:        actuary.D2DFraction(0.10),
	}
}

func newSession(t testing.TB) *actuary.Session {
	t.Helper()
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// singleProcessBest is the ground truth: the unsharded sweep-best
// answer of one local session.
func singleProcessBest(t testing.TB, req actuary.Request) *actuary.SweepBest {
	t.Helper()
	res := newSession(t).Evaluate(context.Background(), []actuary.Request{req})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.SweepBest
}

// assertSameBest checks the distributed answer against the
// single-process one: top-K and Pareto byte-identical, summary exact
// except Sum (floating-point reassociation), statistics exact.
func assertSameBest(t *testing.T, got, want *actuary.SweepBest) {
	t.Helper()
	if !reflect.DeepEqual(got.Top, want.Top) {
		t.Errorf("Top = %v\nwant %v", ids(got.Top), ids(want.Top))
	}
	if !reflect.DeepEqual(got.Pareto, want.Pareto) {
		t.Errorf("Pareto = %v\nwant %v", ids(got.Pareto), ids(want.Pareto))
	}
	gs, ws := got.Summary, want.Summary
	if gs.Count != ws.Count || gs.Min != ws.Min || gs.Max != ws.Max ||
		gs.MinID != ws.MinID || gs.MaxID != ws.MaxID {
		t.Errorf("Summary = %+v, want %+v", gs, ws)
	}
	if math.Abs(gs.Sum-ws.Sum) > 1e-9*math.Abs(ws.Sum) {
		t.Errorf("Summary.Sum = %v, want %v (beyond reassociation tolerance)", gs.Sum, ws.Sum)
	}
	if got.Pruned != want.Pruned || got.Deduped != want.Deduped || got.Infeasible != want.Infeasible {
		t.Errorf("stats = %d/%d/%d pruned/deduped/infeasible, want %d/%d/%d",
			got.Pruned, got.Deduped, got.Infeasible, want.Pruned, want.Deduped, want.Infeasible)
	}
	// The merged first failure is the globally first failing candidate,
	// rendered identically whether or not it crossed the wire.
	if (got.FirstFailure == nil) != (want.FirstFailure == nil) {
		t.Errorf("FirstFailure presence = %v, want %v", got.FirstFailure, want.FirstFailure)
	} else if want.FirstFailure != nil {
		if g, w := actuary.FailureCause(got.FirstFailure).Error(), actuary.FailureCause(want.FirstFailure).Error(); g != w {
			t.Errorf("FirstFailure = %q, want %q", g, w)
		}
		if got.FirstFailureCandidate != want.FirstFailureCandidate {
			t.Errorf("FirstFailureCandidate = %d, want %d", got.FirstFailureCandidate, want.FirstFailureCandidate)
		}
	}
}

func ids(pts []actuary.SweepPoint) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	for _, backends := range []int{1, 2, 3} {
		for _, shards := range []int{0, 5} { // 0: one per backend
			t.Run(fmt.Sprintf("backends=%d shards=%d", backends, shards), func(t *testing.T) {
				var bs []client.Backend
				for i := 0; i < backends; i++ {
					bs = append(bs, client.Local(newSession(t)))
				}
				var opts []Option
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				coord, err := New(bs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coord.SweepBest(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBest(t, got, want)
			})
		}
	}
}

// flakyBackend passes through okCalls evaluations, then fails every
// later one with a transport error — a backend dying mid-sweep. failed,
// when non-nil, is closed on the first failure.
type flakyBackend struct {
	inner   client.Backend
	okCalls int32
	calls   atomic.Int32
	failed  chan struct{}
	once    sync.Once
}

func (f *flakyBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	if f.calls.Add(1) > f.okCalls {
		if f.failed != nil {
			f.once.Do(func() { close(f.failed) })
		}
		return nil, &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1,
			Err: errors.New("backend went away")}
	}
	return f.inner.Evaluate(ctx, reqs)
}

func (f *flakyBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return f.inner.Stream(ctx, req)
}

// heldBackend holds each evaluation until release closes. The wait is
// bounded, so a fault that never fires fails the test instead of
// hanging it.
type heldBackend struct {
	client.Backend
	release <-chan struct{}
}

func (h heldBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	select {
	case <-h.release:
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
	}
	return h.Backend.Evaluate(ctx, reqs)
}

func TestCoordinatorReassignsFailedShard(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	// Backend 1 dies after its first shard; its remaining shards must
	// drain through backend 0. Backend 0 is held until backend 1 has
	// failed, so it cannot drain every shard before the fault fires.
	failed := make(chan struct{})
	flaky := &flakyBackend{inner: client.Local(newSession(t)), okCalls: 1, failed: failed}
	healthy := heldBackend{Backend: client.Local(newSession(t)), release: failed}
	coord, err := New([]client.Backend{healthy, flaky}, WithShards(6))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if flaky.calls.Load() < 2 {
		t.Errorf("flaky backend was called %d times; the failure path never ran", flaky.calls.Load())
	}
}

func TestCoordinatorAllBackendsFail(t *testing.T) {
	grid := testGrid()
	dead := func() client.Backend { return &flakyBackend{inner: nil, okCalls: 0} }
	coord, err := New([]client.Backend{dead(), dead()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("coordinator succeeded with every backend dead")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrTransport {
		t.Errorf("error = %v, want a classified transport failure", err)
	}
}

func TestCoordinatorFatalEvaluationError(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"not-a-node"}
	calls := &countingBackend{inner: client.Local(newSession(t))}
	coord, err := New([]client.Backend{calls, client.Local(newSession(t))}, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("unknown node did not fail the distributed sweep")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("error = %v, want classified unknown-node", err)
	}
}

// countingBackend counts Evaluate calls.
type countingBackend struct {
	inner client.Backend
	calls atomic.Int32
}

func (c *countingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	c.calls.Add(1)
	return c.inner.Evaluate(ctx, reqs)
}

func (c *countingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return c.inner.Stream(ctx, req)
}

func TestCoordinatorInfeasibleGrid(t *testing.T) {
	// Every point pruned (a 5000 mm² interposer design): the merged
	// empty shards must reproduce the single-process ErrInfeasible.
	grid := actuary.SweepGrid{
		Name:       "nofit",
		Nodes:      []string{"5nm"},
		Schemes:    []actuary.Scheme{actuary.TwoPointFiveD},
		AreasMM2:   []float64{5000},
		Counts:     []int{4},
		Quantities: []float64{1e6},
	}
	coord, err := New([]client.Backend{client.Local(newSession(t)), client.Local(newSession(t))})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("infeasible grid did not fail the distributed sweep")
	}
	ae, ok := actuary.AsError(err)
	if !ok || ae.Code != actuary.ErrInfeasible {
		t.Errorf("error = %v, want classified infeasible", err)
	}
}

func TestCoordinatorRejectsBadRequests(t *testing.T) {
	grid := testGrid()
	coord, err := New([]client.Backend{client.Local(newSession(t))})
	if err != nil {
		t.Fatal(err)
	}
	cases := []actuary.Request{
		{Question: actuary.QuestionSweepBest},                                            // no grid
		{Question: actuary.QuestionRE, Grid: &grid},                                      // wrong question
		{Question: actuary.QuestionSweepBest, Grid: &grid, ShardIndex: 1, ShardCount: 2}, // pre-sharded
		{Question: actuary.QuestionSweepBest, Grid: &actuary.SweepGrid{Name: "noaxes"}},  // invalid grid
	}
	for i, req := range cases {
		if _, err := coord.SweepBest(context.Background(), req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
	if _, err := New(nil); err == nil {
		t.Error("coordinator built with no backends")
	}
}

// TestCoordinatorOverDaemons is the end-to-end acceptance check: a
// sweep split across two actuaryd daemons (full HTTP wire protocol)
// returns top-K, Pareto front and summary identical to the
// single-process QuestionSweepBest answer, and the run survives one
// daemon dying mid-sweep.
func TestCoordinatorOverDaemons(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	daemon := func() (*httptest.Server, client.Backend) {
		ts := httptest.NewServer(server.New(newSession(t)).Handler())
		c, err := client.Dial(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return ts, c
	}
	ts1, c1 := daemon()
	defer ts1.Close()
	ts2, c2 := daemon()
	defer ts2.Close()

	coord, err := New([]client.Backend{c1, c2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	// Daemon 2 dies mid-sweep: after its first answered shard, every
	// later call fails at the socket. The coordinator must reassign
	// the lost shards to daemon 1 and still produce the exact answer.
	// Daemon 1 is held until daemon 2 has died, so it cannot drain
	// every shard before the failure.
	ts3, c3 := daemon()
	died := make(chan struct{})
	var once sync.Once
	dying := &dyingBackend{inner: c3, kill: func() { once.Do(func() { ts3.Close(); close(died) }) }}
	coord, err = New([]client.Backend{heldBackend{Backend: c1, release: died}, dying}, WithShards(6))
	if err != nil {
		t.Fatal(err)
	}
	got, err = coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if dying.calls.Load() < 2 {
		t.Errorf("dying daemon saw %d calls; the mid-sweep failure never happened", dying.calls.Load())
	}
}

// dyingBackend lets its first Evaluate through, then kills the daemon
// so later calls fail with a real transport error.
type dyingBackend struct {
	inner client.Backend
	kill  func()
	calls atomic.Int32
}

func (d *dyingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	if d.calls.Add(1) > 1 {
		d.kill()
	}
	return d.inner.Evaluate(ctx, reqs)
}

func (d *dyingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return d.inner.Stream(ctx, req)
}

func TestSweepBestScenario(t *testing.T) {
	cfg := actuary.ScenarioConfig{
		Version: 2, Name: "dist", Questions: []string{"sweep-best"},
		Sweeps: []actuary.SweepConfig{{
			Name: "dist", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
			D2DFraction: 0.10, Quantity: 1_000_000,
			AreasMM2: []float64{200, 500, 860}, Counts: []int{1, 2, 3, 4},
			TopK: 5,
		}},
	}
	reqs, err := cfg.Requests()
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcessBest(t, reqs[0])
	coord, err := New([]client.Backend{client.Local(newSession(t)), client.Local(newSession(t))})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepBestScenario(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	// Scenarios that are not exactly one sweep-best are rejected.
	bad := cfg
	bad.Questions = []string{"total-cost"}
	if _, err := coord.SweepBestScenario(context.Background(), bad); err == nil {
		t.Error("non-sweep-best scenario accepted")
	}
	sharded := cfg
	sharded.ShardIndex, sharded.ShardCount = 0, 2
	if _, err := coord.SweepBestScenario(context.Background(), sharded); err == nil {
		t.Error("pre-sharded scenario accepted")
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	grid := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coord, err := New([]client.Backend{client.Local(newSession(t))})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SweepBest(ctx, actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("canceled context produced an answer")
	}
}

// BenchmarkDistributedSweep compares one sweep-best over a ~50k-point
// grid fanned across 1, 2 and 4 local backends. A sweep-best request
// walks its shard single-threaded, so the fan-out is what buys
// parallelism.
func BenchmarkDistributedSweep(b *testing.B) {
	areas, err := actuary.SweepAreaRange(100, 850, 5)
	if err != nil {
		b.Fatal(err)
	}
	grid := actuary.SweepGrid{
		Name:       "bench",
		Nodes:      []string{"5nm", "7nm", "12nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   areas,
		Counts:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		Quantities: []float64{1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7},
		D2D:        actuary.D2DFraction(0.10),
	}
	if got := grid.Size(); got < 50_000 {
		b.Fatalf("benchmark grid has %d points, want ≥ 50k", got)
	}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 10}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			var bs []client.Backend
			for i := 0; i < n; i++ {
				bs = append(bs, client.Local(newSession(b)))
			}
			coord, err := New(bs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.SweepBest(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCoordinatorTaxonomyOverDaemons: the unknown-node classification
// survives remote shards — the error code must not depend on whether
// backends are local or spoken to over the wire.
func TestCoordinatorTaxonomyOverDaemons(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"not-a-node"}
	ts := httptest.NewServer(server.New(newSession(t)).Handler())
	defer ts.Close()
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New([]client.Backend{c}, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if err == nil {
		t.Fatal("unknown node did not fail the remote distributed sweep")
	}
	if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("error = %v, want classified unknown-node (remote backends must match local)", err)
	}
}

// TestCoordinatorPartialFailureFirstFailure: a grid where one node
// axis value fails every evaluation. The merged answer must report the
// globally first failing candidate — the same failure, at the same
// grid position, as the single-process sweep — whether the shards ran
// locally or behind real daemons.
func TestCoordinatorPartialFailureFirstFailure(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"5nm", "not-a-node"}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	if want.FirstFailure == nil || want.Infeasible == 0 {
		t.Fatal("partial-failure grid produced no failures; the test grid is wrong")
	}

	local, err := New([]client.Backend{client.Local(newSession(t)), client.Local(newSession(t))}, WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := local.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	ts := httptest.NewServer(server.New(newSession(t)).Handler())
	defer ts.Close()
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New([]client.Backend{c}, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err = remote.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
}

// shardCountingBackend wraps a Backend and counts evaluations per
// shard index, so resume tests can prove drained shards are never
// re-dispatched.
type shardCountingBackend struct {
	inner client.Backend
	mu    sync.Mutex
	calls map[int]int
}

func newShardCounting(inner client.Backend) *shardCountingBackend {
	return &shardCountingBackend{inner: inner, calls: make(map[int]int)}
}

func (b *shardCountingBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	b.mu.Lock()
	for _, r := range reqs {
		b.calls[r.ShardIndex]++
	}
	b.mu.Unlock()
	return b.inner.Evaluate(ctx, reqs)
}

func (b *shardCountingBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return b.inner.Stream(ctx, req)
}

func (b *shardCountingBackend) shardCalls() map[int]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int]int, len(b.calls))
	for k, v := range b.calls {
		out[k] = v
	}
	return out
}

// TestCoordinatorCheckpointResume is the coordinator acceptance test:
// a run interrupted after some shards drained and restarted from its
// checkpoint re-dispatches only the undrained shards and still merges
// the exact single-process answer. The checkpoint takes the same
// wire round trip a real restart would.
func TestCoordinatorCheckpointResume(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	want := singleProcessBest(t, req)
	const shards = 6

	// First run: abort (via context cancel) once half the shards have
	// checkpointed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, err := New([]client.Backend{client.Local(newSession(t))}, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	var last *actuary.CoordinatorCheckpoint
	_, err = coord.SweepBestCheckpointed(ctx, req, nil, func(cp *actuary.CoordinatorCheckpoint) error {
		data, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		back := new(actuary.CoordinatorCheckpoint)
		if err := json.Unmarshal(data, back); err != nil {
			return err
		}
		last = back
		if len(back.Completed) == shards/2 {
			cancel() // the "kill"
		}
		return nil
	})
	if err == nil {
		t.Fatal("interrupted run should fail with the cancellation")
	}
	if last == nil || len(last.Completed) < shards/2 {
		t.Fatalf("no usable checkpoint before the interruption: %+v", last)
	}
	if len(last.Completed) == shards {
		t.Fatal("every shard drained before the cancel — the resume proves nothing")
	}

	// Second run: a fresh coordinator (fresh session — a restarted
	// process) resumes from the checkpoint.
	backend := newShardCounting(client.Local(newSession(t)))
	coord2, err := New([]client.Backend{backend}, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	var final *actuary.CoordinatorCheckpoint
	got, err := coord2.SweepBestCheckpointed(context.Background(), req, last,
		func(cp *actuary.CoordinatorCheckpoint) error { final = cp; return nil })
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	calls := backend.shardCalls()
	for _, sr := range last.Completed {
		if calls[sr.Shard] != 0 {
			t.Errorf("drained shard %d was re-dispatched %d times", sr.Shard, calls[sr.Shard])
		}
	}
	total := 0
	for _, c := range calls {
		total += c
	}
	if total != shards-len(last.Completed) {
		t.Errorf("resumed run evaluated %d shards, want %d", total, shards-len(last.Completed))
	}
	if final == nil || len(final.Completed) != shards {
		t.Errorf("final checkpoint records %d shards, want all %d", len(final.Completed), shards)
	}
}

// TestCoordinatorCheckpointRejects covers the coordinator resume
// guard rails: wrong fingerprint, wrong shard count, out-of-range
// recorded shards.
func TestCoordinatorCheckpointRejects(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New([]client.Backend{client.Local(newSession(t))}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := map[string]*actuary.CoordinatorCheckpoint{
		"wrong fingerprint": {Fingerprint: "deadbeef", Shards: 3},
		"wrong shard count": {Fingerprint: fp, Shards: 4},
		"shard out of range": {Fingerprint: fp, Shards: 3,
			Completed: []actuary.ShardResult{{Shard: 7, Best: &actuary.SweepBest{}}}},
	}
	for name, cp := range cases {
		if _, err := coord.SweepBestCheckpointed(ctx, req, cp, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
			t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
		}
	}
	// And a complete checkpoint needs no backend at all: resuming it
	// just merges.
	var final *actuary.CoordinatorCheckpoint
	got, err := coord.SweepBestCheckpointed(ctx, req, nil,
		func(cp *actuary.CoordinatorCheckpoint) error { final = cp; return nil })
	if err != nil {
		t.Fatal(err)
	}
	broken, err := New([]client.Backend{&flakyBackend{inner: nil, okCalls: 0}}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := broken.SweepBestCheckpointed(ctx, req, final, nil)
	if err != nil {
		t.Fatalf("resume of a complete checkpoint touched a backend: %v", err)
	}
	assertSameBest(t, resumed, got)
}

// TestCoordinatorCheckpointRejectsInMemoryCorruption checks that the
// resume path re-validates what the wire decoder would have: an
// in-memory checkpoint (never JSON round-tripped) with negative,
// duplicate or answerless shard entries is rejected, not merged.
func TestCoordinatorCheckpointRejectsInMemoryCorruption(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 2}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New([]client.Backend{client.Local(newSession(t))}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	empty := &actuary.SweepBest{}
	cases := map[string][]actuary.ShardResult{
		"negative shard":  {{Shard: -1, Best: empty}},
		"duplicate shard": {{Shard: 1, Best: empty}, {Shard: 1, Best: empty}},
		"missing answer":  {{Shard: 0, Best: nil}},
	}
	for name, completed := range cases {
		cp := &actuary.CoordinatorCheckpoint{Fingerprint: fp, Shards: 3, Completed: completed}
		if _, err := coord.SweepBestCheckpointed(context.Background(), req, cp, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
			t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
		}
	}
}
