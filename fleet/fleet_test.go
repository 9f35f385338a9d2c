package fleet

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
		Name:       "fleet",
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

// assertSameBest checks a fleet answer against the single-process
// one: top-K and Pareto byte-identical, summary exact except Sum
// (floating-point reassociation), statistics and first failure exact.
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

// fixedCoordinator builds the configuration explore -backends runs:
// the given backends under fixed names, no monitor, no speculation,
// and one shard per backend unless shards pins the count. A shard
// moves to another backend only after a completed transport failure.
func fixedCoordinator(t testing.TB, shards int, backends ...client.Backend) *Coordinator {
	t.Helper()
	reg := NewRegistry()
	for i, b := range backends {
		if err := reg.Add(fmt.Sprintf("backend-%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := New(reg, WithOverPartition(1), WithShards(shards), WithSpeculation(false))
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// localBackends returns n in-process backends, each over its own
// session.
func localBackends(t testing.TB, n int) []client.Backend {
	t.Helper()
	bs := make([]client.Backend, n)
	for i := range bs {
		bs[i] = client.Local(newSession(t))
	}
	return bs
}

// daemon serves a fresh session over HTTP (the full wire protocol, as
// cmd/actuaryd does) and returns the server and a client dialed to it.
// The server closes at test cleanup if the test has not closed it.
func daemon(t *testing.T) (*httptest.Server, client.Backend) {
	t.Helper()
	ts := httptest.NewServer(server.New(newSession(t)).Handler())
	t.Cleanup(ts.Close)
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return ts, c
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

// blockedBackend hangs every Evaluate until its context is canceled —
// a wedged daemon that accepted the connection and went silent.
type blockedBackend struct {
	calls atomic.Int32
}

func (b *blockedBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	b.calls.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

func (b *blockedBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return nil, errors.New("blocked backend cannot stream")
}

// TestFleetMatchesSingleProcess: the fleet scheduler merges the exact
// single-process answer for any backend count — speculation on and
// over-partitioned (explore -fleet), or fixed with speculation off at
// one shard per backend or five shards (explore -backends).
func TestFleetMatchesSingleProcess(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	check := func(t *testing.T, coord *Coordinator, shards int) {
		t.Helper()
		got, err := coord.SweepBest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBest(t, got, want)
		st := coord.Stats()
		if st.Shards != shards {
			t.Errorf("Shards = %d, want %d", st.Shards, shards)
		}
		won := 0
		for _, bs := range st.Backends {
			won += bs.Shards
		}
		if won != st.Shards {
			t.Errorf("backends won %d shards of %d — a shard merged zero or twice", won, st.Shards)
		}
	}
	for _, backends := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("backends=%d", backends), func(t *testing.T) {
			coord, err := New(localRegistry(t, backends))
			if err != nil {
				t.Fatal(err)
			}
			check(t, coord, DefaultOverPartition*backends)
		})
	}
	t.Run("speculation=off", func(t *testing.T) {
		for _, backends := range []int{1, 2, 3} {
			for _, shards := range []int{0, 5} {
				t.Run(fmt.Sprintf("backends=%d shards=%d", backends, shards), func(t *testing.T) {
					coord := fixedCoordinator(t, shards, localBackends(t, backends)...)
					n := shards
					if n == 0 {
						n = backends // one shard per backend
					}
					check(t, coord, n)
					if st := coord.Stats(); st.Speculations != 0 {
						t.Errorf("speculation off, yet %d speculative executions ran", st.Speculations)
					}
				})
			}
		}
	})
}

// TestFleetRescuesStraggler is the tentpole acceptance test: one
// backend wedges solid on its first shard, the healthy backend drains
// the rest and then speculatively re-executes the wedged shard. The
// wedged execution is canceled by the rival's win, and the answer
// stays byte-identical to the single-process sweep.
func TestFleetRescuesStraggler(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	wedged := &blockedBackend{}
	if err := reg.Add("wedged", wedged); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("healthy", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	kinds := map[string]int{}
	coord, err := New(reg, WithShards(6),
		WithEvents(func(ev Event) { mu.Lock(); kinds[ev.Kind]++; mu.Unlock() }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := coord.SweepBest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if wedged.calls.Load() == 0 {
		t.Fatal("wedged backend was never dispatched; the test proves nothing")
	}
	st := coord.Stats()
	if st.Speculations == 0 || st.Steals == 0 {
		t.Errorf("stats = %+v, want at least one speculation and one steal", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds["speculate"] == 0 || kinds["steal"] == 0 {
		t.Errorf("events = %v, want speculate and steal", kinds)
	}
}

// TestFleetLateJoin: a sweep starts with only a wedged backend; a
// healthy backend added to the registry mid-run is admitted, drains
// everything (stealing the wedged shard), and the answer is exact.
func TestFleetLateJoin(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	wedged := &blockedBackend{}
	if err := reg.Add("wedged", wedged); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var joined []string
	coord, err := New(reg, WithShards(5), WithEvents(func(ev Event) {
		if ev.Kind == "join" {
			mu.Lock()
			joined = append(joined, ev.Backend)
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	late := &countingBackend{inner: client.Local(newSession(t))}
	result := make(chan error, 1)
	var got *actuary.SweepBest
	go func() {
		var err error
		got, err = coord.SweepBest(ctx, req)
		result <- err
	}()

	// Wait until the wedged backend has taken a shard, then join.
	for wedged.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := reg.Add("late", late); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if late.calls.Load() < 5 {
		t.Errorf("late joiner evaluated %d shards, want all 5", late.calls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(joined, []string{"late"}) {
		t.Errorf("join events = %v, want [late]", joined)
	}
}

// TestFleetSkipsMarkedDownBackend: with a monitor attached, a backend
// that never answers a probe is marked down before it can waste a
// single shard; the sweep drains entirely through the healthy one.
func TestFleetSkipsMarkedDownBackend(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)

	reg := NewRegistry()
	dead := &probedBackend{inner: &blockedBackend{}, err: errors.New("connection refused")}
	if err := reg.Add("dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("healthy", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(reg)
	if err != nil {
		t.Fatal(err)
	}
	mon.ProbeOnce(context.Background()) // marks dead down before the sweep
	coord, err := New(reg, WithMonitor(mon), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if calls := dead.inner.(*blockedBackend).calls.Load(); calls != 0 {
		t.Errorf("marked-down backend was dispatched %d shards", calls)
	}
	for _, bs := range coord.Stats().Backends {
		if bs.Name == "dead" && bs.State != "down" {
			t.Errorf("dead backend state %q, want down", bs.State)
		}
	}
}

// probedBackend pairs any backend with a scripted probe answer.
type probedBackend struct {
	inner client.Backend
	err   error
}

func (p *probedBackend) Probe(context.Context) (client.Status, error) {
	if p.err != nil {
		return client.Status{}, p.err
	}
	return client.Status{Source: "test"}, nil
}

func (p *probedBackend) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	return p.inner.Evaluate(ctx, reqs)
}

func (p *probedBackend) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return p.inner.Stream(ctx, req)
}

// TestFleetAllBackendsDown: every backend marked down leaves the run
// parked; the caller's deadline is what ends it.
func TestFleetAllBackendsDown(t *testing.T) {
	grid := testGrid()
	reg := NewRegistry()
	if err := reg.Add("dead", &probedBackend{inner: &blockedBackend{}, err: errors.New("refused")}); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(reg)
	if err != nil {
		t.Fatal(err)
	}
	mon.ProbeOnce(context.Background())
	coord, err := New(reg, WithMonitor(mon))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = coord.SweepBest(ctx, actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
}

// TestFleetCheckpointResumeNeverRedispatchesDrained: resuming from a
// checkpoint dispatches only the undrained shards, with speculation on
// or off, and the merged answer is exact. The checkpoint takes the
// wire round trip a real restart would, and a complete checkpoint
// resumes without touching a backend at all.
func TestFleetCheckpointResumeNeverRedispatchesDrained(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	want := singleProcessBest(t, req)
	const shards = 6

	for _, speculate := range []bool{true, false} {
		t.Run(fmt.Sprintf("speculation=%v", speculate), func(t *testing.T) {
			coordOver := func(b client.Backend) *Coordinator {
				reg := NewRegistry()
				if err := reg.Add("one", b); err != nil {
					t.Fatal(err)
				}
				coord, err := New(reg, WithShards(shards), WithSpeculation(speculate))
				if err != nil {
					t.Fatal(err)
				}
				return coord
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var last *actuary.CoordinatorCheckpoint
			_, err := coordOver(client.Local(newSession(t))).SweepBestCheckpointed(ctx, req, nil,
				func(cp *actuary.CoordinatorCheckpoint) error {
					// Read back what a restarted process would load from disk.
					data, err := json.Marshal(cp)
					if err != nil {
						return err
					}
					last = new(actuary.CoordinatorCheckpoint)
					if err := json.Unmarshal(data, last); err != nil {
						return err
					}
					if len(cp.Completed) == shards/2 {
						cancel()
					}
					return nil
				})
			if err == nil {
				t.Fatal("interrupted run should fail with the cancellation")
			}
			if last == nil || len(last.Completed) < shards/2 || len(last.Completed) == shards {
				t.Fatalf("unusable checkpoint: %+v", last)
			}

			counter := &shardCounter{inner: client.Local(newSession(t)), calls: map[int]int{}}
			var final *actuary.CoordinatorCheckpoint
			got, err := coordOver(counter).SweepBestCheckpointed(context.Background(), req, last,
				func(cp *actuary.CoordinatorCheckpoint) error { final = cp; return nil })
			if err != nil {
				t.Fatal(err)
			}
			assertSameBest(t, got, want)
			counter.mu.Lock()
			for _, sr := range last.Completed {
				if counter.calls[sr.Shard] != 0 {
					t.Errorf("drained shard %d re-dispatched %d times", sr.Shard, counter.calls[sr.Shard])
				}
			}
			total := 0
			for _, c := range counter.calls {
				total += c
			}
			counter.mu.Unlock()
			if total != shards-len(last.Completed) {
				t.Errorf("resumed run evaluated %d shards, want %d", total, shards-len(last.Completed))
			}
			if final == nil || len(final.Completed) != shards {
				t.Fatalf("final checkpoint %+v does not record all %d shards", final, shards)
			}

			// A complete checkpoint needs no backend: resuming it just
			// merges.
			resumed, err := coordOver(&flakyBackend{}).SweepBestCheckpointed(context.Background(), req, final, nil)
			if err != nil {
				t.Fatalf("resume of a complete checkpoint touched a backend: %v", err)
			}
			assertSameBest(t, resumed, want)
		})
	}
}

// shardCounter counts evaluations per shard index.
type shardCounter struct {
	inner client.Backend
	mu    sync.Mutex
	calls map[int]int
}

func (b *shardCounter) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	b.mu.Lock()
	for _, r := range reqs {
		b.calls[r.ShardIndex]++
	}
	b.mu.Unlock()
	return b.inner.Evaluate(ctx, reqs)
}

func (b *shardCounter) Stream(ctx context.Context, req client.StreamRequest) (<-chan actuary.Result, error) {
	return b.inner.Stream(ctx, req)
}

func TestFleetRejectsBadInputs(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil registry accepted")
	}
	reg := NewRegistry()
	if _, err := New(reg, WithOverPartition(0)); err == nil {
		t.Error("zero over-partition factor accepted")
	}
	if err := reg.Add("nil", nil); err == nil {
		t.Error("nil backend accepted")
	}
	coord, err := New(reg, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid()
	ctx := context.Background()
	if _, err := coord.SweepBest(ctx,
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid}); err == nil {
		t.Error("sweep over an empty registry accepted")
	}
	if err := reg.Add("a", client.Local(newSession(t))); err != nil {
		t.Fatal(err)
	}
	t.Run("bad requests", func(t *testing.T) {
		bad := []actuary.Request{
			{Question: actuary.QuestionSweepBest},                                            // no grid
			{Question: actuary.QuestionRE, Grid: &grid},                                      // wrong question
			{Question: actuary.QuestionSweepBest, Grid: &grid, ShardIndex: 1, ShardCount: 2}, // pre-sharded
			{Question: actuary.QuestionSweepBest, Grid: &actuary.SweepGrid{Name: "noaxes"}},  // invalid grid
		}
		for i, req := range bad {
			if _, err := coord.SweepBest(ctx, req); err == nil {
				t.Errorf("case %d: bad request accepted", i)
			}
		}
	})
	t.Run("canceled context", func(t *testing.T) {
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := coord.SweepBest(canceled, actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid}); err == nil {
			t.Error("canceled context produced an answer")
		}
	})

	// Checkpoints that cannot seed this sweep: another workload or
	// another partitioning, or shard records no run could have written
	// (checked even when the checkpoint never crossed the wire).
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 4}
	fp, err := actuary.SweepFingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	empty := &actuary.SweepBest{}
	rejects := func(t *testing.T, checkpoints map[string]*actuary.CoordinatorCheckpoint) {
		for name, cp := range checkpoints {
			if _, err := coord.SweepBestCheckpointed(ctx, req, cp, nil); !errors.Is(err, actuary.ErrCheckpointMismatch) {
				t.Errorf("%s: %v, want ErrCheckpointMismatch", name, err)
			}
		}
	}
	t.Run("checkpoint of another sweep", func(t *testing.T) {
		rejects(t, map[string]*actuary.CoordinatorCheckpoint{
			"wrong fingerprint":  {Fingerprint: "deadbeef", Shards: 3},
			"wrong shard count":  {Fingerprint: fp, Shards: 4},
			"shard out of range": {Fingerprint: fp, Shards: 3, Completed: []actuary.ShardResult{{Shard: 7, Best: empty}}},
		})
	})
	t.Run("corrupt checkpoint", func(t *testing.T) {
		rejects(t, map[string]*actuary.CoordinatorCheckpoint{
			"negative shard":  {Fingerprint: fp, Shards: 3, Completed: []actuary.ShardResult{{Shard: -1, Best: empty}}},
			"duplicate shard": {Fingerprint: fp, Shards: 3, Completed: []actuary.ShardResult{{Shard: 1, Best: empty}, {Shard: 1, Best: empty}}},
			"missing answer":  {Fingerprint: fp, Shards: 3, Completed: []actuary.ShardResult{{Shard: 0}}},
		})
	})
}

// flakyBackend passes through okCalls evaluations, then fails every
// later one with a transport error — a backend dying mid-sweep. A nil
// inner backend with okCalls 0 is dead from the start. failed, when
// non-nil, is closed on the first failure.
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

// TestFleetReassignsFailedShard: with speculation off, a backend that
// dies after its first shard loses its remaining shards to the live
// backend, and the answer is exact. The live backend is held until the
// fault fires, so it cannot drain every shard first.
func TestFleetReassignsFailedShard(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	failed := make(chan struct{})
	flaky := &flakyBackend{inner: client.Local(newSession(t)), okCalls: 1, failed: failed}
	healthy := heldBackend{Backend: client.Local(newSession(t)), release: failed}
	coord := fixedCoordinator(t, 6, healthy, flaky)
	got, err := coord.SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)
	if flaky.calls.Load() < 2 {
		t.Errorf("flaky backend was called %d times; the failure path never ran", flaky.calls.Load())
	}
	if st := coord.Stats(); st.Requeues == 0 || st.Speculations != 0 {
		t.Errorf("stats = %+v, want requeues and no speculation", st)
	}
}

// TestFleetAllBackendsFail: without a monitor nothing parks — every
// backend failing every shard on transport ends the run with a
// classified transport failure.
func TestFleetAllBackendsFail(t *testing.T) {
	grid := testGrid()
	coord := fixedCoordinator(t, 0, &flakyBackend{}, &flakyBackend{})
	_, err := coord.SweepBest(context.Background(),
		actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
	if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrTransport {
		t.Errorf("error = %v, want a classified transport failure", err)
	}
}

// TestFleetEvaluationErrors: deterministic evaluation failures abort
// the run with their own classification — never retried, since every
// backend would reproduce them — whether the shards ran in process or
// behind a daemon.
func TestFleetEvaluationErrors(t *testing.T) {
	unknown := testGrid()
	unknown.Nodes = []string{"not-a-node"}
	// Every point pruned (a 5000 mm² interposer design): the merged
	// empty shards must reproduce the single-process ErrInfeasible.
	nofit := actuary.SweepGrid{
		Name:       "nofit",
		Nodes:      []string{"5nm"},
		Schemes:    []actuary.Scheme{actuary.TwoPointFiveD},
		AreasMM2:   []float64{5000},
		Counts:     []int{4},
		Quantities: []float64{1e6},
	}
	_, remote := daemon(t)
	cases := []struct {
		name     string
		grid     actuary.SweepGrid
		coord    *Coordinator
		wantCode actuary.ErrorCode
	}{
		{"unknown node", unknown, fixedCoordinator(t, 4, localBackends(t, 2)...), actuary.ErrUnknownNode},
		{"unknown node over a daemon", unknown, fixedCoordinator(t, 2, remote), actuary.ErrUnknownNode},
		{"nothing fits", nofit, fixedCoordinator(t, 0, localBackends(t, 2)...), actuary.ErrInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			grid := tc.grid
			_, err := tc.coord.SweepBest(context.Background(),
				actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid})
			if ae, ok := actuary.AsError(err); !ok || ae.Code != tc.wantCode {
				t.Errorf("error = %v, want classified %v", err, tc.wantCode)
			}
		})
	}
}

// TestFleetOverDaemons is the end-to-end check over the full HTTP wire
// protocol: a sweep split across two daemons returns the
// single-process answer, and still does when one daemon dies
// mid-sweep and its shards move to the other.
func TestFleetOverDaemons(t *testing.T) {
	grid := testGrid()
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	_, c1 := daemon(t)
	_, c2 := daemon(t)
	got, err := fixedCoordinator(t, 0, c1, c2).SweepBest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

	// Daemon 3 dies after its first answered shard: every later call
	// fails at the socket. Daemon 1 is held until then, so it cannot
	// drain every shard before the failure.
	ts3, c3 := daemon(t)
	died := make(chan struct{})
	var once sync.Once
	dying := &dyingBackend{inner: c3, kill: func() { once.Do(func() { ts3.Close(); close(died) }) }}
	got, err = fixedCoordinator(t, 6, heldBackend{Backend: c1, release: died}, dying).SweepBest(context.Background(), req)
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

// TestFleetPartialFailureFirstFailure: a grid where one node axis
// value fails every evaluation. The merged answer reports the globally
// first failing candidate — the same failure at the same grid position
// as the single-process sweep — whether the shards ran locally or
// behind a daemon.
func TestFleetPartialFailureFirstFailure(t *testing.T) {
	grid := testGrid()
	grid.Nodes = []string{"5nm", "not-a-node"}
	req := actuary.Request{Question: actuary.QuestionSweepBest, Grid: &grid, TopK: 5}
	want := singleProcessBest(t, req)
	if want.FirstFailure == nil || want.Infeasible == 0 {
		t.Fatal("partial-failure grid produced no failures; the test grid is wrong")
	}
	_, remote := daemon(t)
	for _, coord := range []*Coordinator{
		fixedCoordinator(t, 5, localBackends(t, 2)...),
		fixedCoordinator(t, 4, remote),
	} {
		got, err := coord.SweepBest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBest(t, got, want)
	}
}

// TestFleetSweepBestScenario: the scenario-file face answers a
// one-sweep-best scenario exactly, and rejects scenarios that are not
// exactly one unsharded sweep-best.
func TestFleetSweepBestScenario(t *testing.T) {
	cfg := actuary.ScenarioConfig{
		Version: 2, Name: "scenario", Questions: []string{"sweep-best"},
		Sweeps: []actuary.SweepConfig{{
			Name: "scenario", Nodes: []string{"5nm", "7nm"}, Schemes: []string{"MCM", "2.5D"},
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
	coord := fixedCoordinator(t, 0, localBackends(t, 2)...)
	got, err := coord.SweepBestScenario(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBest(t, got, want)

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

// BenchmarkDistributedSweep compares one sweep-best over a ~50k-point
// grid fanned across 1, 2 and 4 local backends in the explore -backends
// configuration (one shard per backend, no speculation). A sweep-best
// request walks its shard single-threaded, so the fan-out is what buys
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
			coord := fixedCoordinator(b, 0, localBackends(b, n)...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.SweepBest(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
