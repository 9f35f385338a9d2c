package actuary_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	actuary "chipletactuary"
)

func TestWorkerBoundsValidation(t *testing.T) {
	cases := [][2]int{{0, 2}, {3, 2}, {-1, -1}}
	for _, c := range cases {
		if _, err := actuary.NewSession(actuary.WithWorkerBounds(c[0], c[1])); err == nil {
			t.Errorf("bounds [%d, %d] accepted", c[0], c[1])
		}
	}
}

func TestResizeClampsToBounds(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(4), actuary.WithWorkerBounds(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Workers(); got != 4 {
		t.Errorf("Workers = %d, want the configured 4", got)
	}
	if min, max := s.WorkerBounds(); min != 2 || max != 6 {
		t.Errorf("WorkerBounds = [%d, %d], want [2, 6]", min, max)
	}
	if got := s.Resize(100); got != 6 {
		t.Errorf("Resize(100) = %d, want clamped to 6", got)
	}
	if got := s.Resize(0); got != 2 {
		t.Errorf("Resize(0) = %d, want clamped to 2", got)
	}
	if got := s.Resize(3); got != 3 || s.Workers() != 3 {
		t.Errorf("Resize(3) = %d (Workers %d), want 3", got, s.Workers())
	}

	// Without explicit bounds the pool is rigid: Resize is a no-op
	// pinned at the configured width, preserving pre-elastic behavior.
	rigid, err := actuary.NewSession(actuary.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := rigid.Resize(10); got != 3 {
		t.Errorf("rigid Resize(10) = %d, want pinned 3", got)
	}
}

// TestElasticPoolUnderResizeChurn hammers an elastic session with
// evaluations while another goroutine whipsaws the pool target. Every
// request must be answered exactly once with the same results a rigid
// session produces — growth and shrink happen only at job boundaries.
func TestElasticPoolUnderResizeChurn(t *testing.T) {
	reqs := make([]actuary.Request, 40)
	for i := range reqs {
		reqs[i] = actuary.Request{Question: actuary.QuestionTotalCost,
			System: actuary.Monolithic("m", "7nm", 400, 1e6)}
	}
	rigid, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := rigid.Evaluate(context.Background(), reqs)

	elastic, err := actuary.NewSession(actuary.WithWorkers(2), actuary.WithWorkerBounds(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
				elastic.Resize(n)
				n = n%8 + 1
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for round := 0; round < 5; round++ {
		got := elastic.Evaluate(context.Background(), reqs)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("round %d result %d: %v", round, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].TotalCost, want[i].TotalCost) {
				t.Fatalf("round %d result %d diverged under resize churn", round, i)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsSnapshotNow(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Evaluate(context.Background(), []actuary.Request{{
		Question: actuary.QuestionTotalCost,
		System:   actuary.Monolithic("m", "7nm", 400, 1e6)}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	snap := actuary.MetricsSnapshotNow(s)
	if snap.Workers != 3 {
		t.Errorf("Workers = %d, want 3", snap.Workers)
	}
	if snap.Session.Requests() != 1 {
		t.Errorf("Requests = %d, want 1", snap.Session.Requests())
	}
	if snap.Cache.Misses == 0 {
		t.Error("evaluation left no cache traffic in the snapshot")
	}
}
