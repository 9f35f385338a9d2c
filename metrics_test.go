package actuary_test

import (
	"context"
	"testing"

	"chipletactuary"
)

func TestSessionMetricsCountStreamTraffic(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Requests() != 0 || m.StreamsStarted != 0 {
		t.Fatalf("fresh session has traffic: %+v", m)
	}

	var reqs []actuary.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, actuary.Request{Question: actuary.QuestionTotalCost,
			System: actuary.Monolithic("m", "7nm", 300+float64(i), 1e6)})
	}
	reqs = append(reqs, actuary.Request{ID: "bad", Question: actuary.QuestionTotalCost,
		System: actuary.Monolithic("x", "2nm", 100, 1e6)})
	results := s.Evaluate(t.Context(), reqs)
	for i, r := range results[:12] {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
	}

	m := s.Metrics()
	if m.StreamsStarted != 1 || m.StreamsCompleted != 1 {
		t.Errorf("streams started/completed = %d/%d, want 1/1", m.StreamsStarted, m.StreamsCompleted)
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("idle session still shows depth %d / in-flight %d", m.QueueDepth, m.InFlight)
	}
	if m.QueueDepthSamples != int64(len(reqs)) {
		t.Errorf("queue samples = %d, want %d", m.QueueDepthSamples, len(reqs))
	}
	if m.QueueDepthMax < 1 || m.MeanQueueDepth() <= 0 {
		t.Errorf("queue depth never observed: max %d mean %v", m.QueueDepthMax, m.MeanQueueDepth())
	}
	if m.InFlightMax < 1 {
		t.Errorf("in-flight high-water mark = %d, want >= 1", m.InFlightMax)
	}
	if m.WorkerBusy <= 0 || m.WorkerTime <= 0 {
		t.Errorf("worker accounting empty: busy %v lifetime %v", m.WorkerBusy, m.WorkerTime)
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0, 1]", u)
	}
	if got := m.Requests(); got != int64(len(reqs)) {
		t.Errorf("requests = %d, want %d", got, len(reqs))
	}
	if got := m.Failures(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if len(m.PerQuestion) != 1 {
		t.Fatalf("per-question rows = %d, want 1 (only total-cost ran)", len(m.PerQuestion))
	}
	qm := m.PerQuestion[0]
	if qm.Question != actuary.QuestionTotalCost || qm.Count != int64(len(reqs)) || qm.Failures != 1 {
		t.Errorf("total-cost row off: %+v", qm)
	}
	if qm.AvgLatency() <= 0 || qm.MaxLatency < qm.AvgLatency() {
		t.Errorf("latency profile off: avg %v max %v", qm.AvgLatency(), qm.MaxLatency)
	}

	// A second batch accumulates onto the same counters.
	s.Evaluate(t.Context(), reqs[:3])
	if m2 := s.Metrics(); m2.StreamsCompleted != 2 || m2.Requests() != int64(len(reqs)+3) {
		t.Errorf("second batch not accumulated: %+v", m2)
	}
}

func TestSessionMetricsLiveDuringStream(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	grid := actuary.SweepGrid{Name: "g", Nodes: []string{"7nm"},
		Schemes: []actuary.Scheme{actuary.MCM},
		AreasMM2: func() []float64 {
			areas, _ := actuary.SweepAreaRange(100, 800, 2)
			return areas
		}(),
		Counts: []int{1, 2, 3}, Quantities: []float64{2e6}, D2D: actuary.D2DFraction(0.10)}
	src, err := actuary.SweepSource(grid.Points(), actuary.QuestionTotalCost, actuary.PerSystemUnit)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Stream(t.Context(), src, actuary.StreamInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot mid-stream, after some results have retired but while
	// workers are still running: lifetime must be accounted live, so
	// utilization is already nonzero and busy never exceeds lifetime.
	for i := 0; i < 10; i++ {
		if _, ok := <-ch; !ok {
			t.Fatal("stream ended before the mid-stream snapshot")
		}
	}
	m := s.Metrics()
	if m.StreamsCompleted != 0 {
		t.Fatalf("stream finished too early for a live snapshot: %+v", m)
	}
	if m.WorkerTime <= 0 {
		t.Errorf("mid-stream worker lifetime = %v, want > 0", m.WorkerTime)
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Errorf("mid-stream utilization = %v, want (0, 1]", u)
	}
	if m.WorkerBusy > m.WorkerTime {
		t.Errorf("busy %v exceeds lifetime %v", m.WorkerBusy, m.WorkerTime)
	}
	if m.QueueDepthSamples == 0 {
		t.Error("no queue-depth samples mid-stream")
	}
	for range ch {
	}
}

func TestSessionMetricsPerQuestionOrdering(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sys := actuary.Monolithic("m", "7nm", 400, 1e6)
	s.Evaluate(t.Context(), []actuary.Request{
		{Question: actuary.QuestionWafers, System: sys},
		{Question: actuary.QuestionRE, System: sys},
		{Question: actuary.QuestionTotalCost, System: sys},
	})
	m := s.Metrics()
	if len(m.PerQuestion) != 3 {
		t.Fatalf("per-question rows = %d, want 3", len(m.PerQuestion))
	}
	for i := 1; i < len(m.PerQuestion); i++ {
		if m.PerQuestion[i-1].Question >= m.PerQuestion[i].Question {
			t.Errorf("per-question rows out of order: %v before %v",
				m.PerQuestion[i-1].Question, m.PerQuestion[i].Question)
		}
	}
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
