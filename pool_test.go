package actuary

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingSource yields the same cheap total-cost request forever and
// counts how many the pump has pulled.
type countingSource struct {
	pulled atomic.Int64
}

func (c *countingSource) Next() (Request, bool) {
	c.pulled.Add(1)
	return Request{Question: QuestionTotalCost, System: Monolithic("m", "7nm", 400, 1e6)}, true
}

// waitUntil yields to the scheduler until cond holds, calling check on
// each round so a gauge is sampled the whole time it is waited on. It
// fails the test if cond does not hold within a generous deadline.
func waitUntil(t *testing.T, what string, cond func() bool, check func()) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		check()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
	check()
}

// settle gives every goroutine already started time to run, sampling
// check each millisecond: a check that no extra worker appears has no
// event to wait on. It sleeps rather than yields, because a goroutine
// queued behind a CPU-bound evaluation runs only once an idle
// processor steals it or the evaluation is preempted (every 10 ms or
// so).
func settle(check func()) {
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		check()
	}
}

// TestStreamSpawnsFixedPool stalls the consumer of a stream on a
// three-worker session. The pipeline fills and stops with inFlight
// results buffered, one result in each worker's hand, inFlight
// requests queued and one more held by the pump, so the source has
// been pulled 2·inFlight + 3 + 1 times once the pipeline is full. The
// live-worker gauge must read 3 then and never more, and 0 once the
// canceled stream's channel closes.
func TestStreamSpawnsFixedPool(t *testing.T) {
	const workers, inFlight = 3, 2
	s, err := NewSession(WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	active := &s.metrics.activeWorkers
	atMost := func() {
		if n := active.Load(); n > workers {
			t.Fatalf("%d live workers, want at most %d", n, workers)
		}
	}
	src := &countingSource{}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	ch, err := s.Stream(ctx, src, StreamInFlight(inFlight))
	if err != nil {
		t.Fatal(err)
	}
	full := int64(2*inFlight + workers + 1)
	waitUntil(t, "the stalled pipeline to fill", func() bool { return src.pulled.Load() >= full }, atMost)
	// A worker beyond the third would take a queued job, and the pump
	// would pull again.
	settle(atMost)
	if n := active.Load(); n != workers {
		t.Errorf("stalled stream runs %d workers, want %d", n, workers)
	}
	if p := src.pulled.Load(); p != full {
		t.Errorf("stalled stream pulled %d requests, want %d", p, full)
	}
	cancel()
	for range ch {
		atMost()
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d workers still live after the channel closed", n)
	}
}

// TestEvaluateOneRequestOneWorker checks that Evaluate sizes its
// stream to the batch: a one-request batch on a three-worker session
// starts one worker, which runs while its request evaluates, and none
// is live once Evaluate returns. The pump closes the queue right after
// the one request, so a second worker would exit at once and fold its
// lifetime into workerNanos while the request still evaluates.
func TestEvaluateOneRequestOneWorker(t *testing.T) {
	s, err := NewSession(WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	active := &s.metrics.activeWorkers
	atMostOne := func() {
		if n := active.Load(); n > 1 {
			t.Fatalf("%d live workers for a one-request batch, want 1", n)
		}
	}
	// A sweep-best over about 3.8 million candidates runs for seconds,
	// long enough to observe; canceling the context ends it at the next
	// candidate.
	areas, err := SweepAreaRange(100, 900, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := SweepCountRange(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid{Name: "long", Nodes: []string{"7nm"},
		Schemes:  []Scheme{MCM, InFO, TwoPointFiveD},
		AreasMM2: areas, Counts: counts, Quantities: []float64{2e6}, D2D: D2DFraction(0.10)}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	done := make(chan []Result, 1)
	go func() {
		done <- s.Evaluate(ctx, []Request{{Question: QuestionSweepBest, Grid: &grid}})
	}()
	evaluating := func() bool { return s.metrics.inFlight.Load() == 1 }
	waitUntil(t, "the request to start evaluating", evaluating, atMostOne)
	settle(atMostOne)
	if !evaluating() {
		t.Fatal("the sweep ended before the pool was checked")
	}
	if n := active.Load(); n != 1 {
		t.Errorf("one-request batch runs %d workers, want 1", n)
	}
	if d := s.metrics.workerNanos.Load(); d != 0 {
		t.Errorf("a worker exited after %v while the only request was evaluating", time.Duration(d))
	}
	cancel()
	res := <-done
	if !isCanceled(res[0].Err) {
		t.Errorf("canceled sweep returned %v, want ErrCanceled", res[0].Err)
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d workers still live after Evaluate returned", n)
	}
}
