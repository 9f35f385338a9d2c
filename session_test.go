package actuary_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"chipletactuary"
)

func newTestSession(t *testing.T, opts ...actuary.Option) *actuary.Session {
	t.Helper()
	s, err := actuary.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mcmSystem(t *testing.T, name string, area float64, k int, quantity float64) actuary.System {
	t.Helper()
	s, err := actuary.PartitionEqual(name, "5nm", area, k, actuary.MCM,
		actuary.D2DFraction(0.10), quantity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionEvaluateMixedBatch sends every question type in one
// batch and checks each result carries exactly its question's payload.
func TestSessionEvaluateMixedBatch(t *testing.T) {
	s := newTestSession(t)
	soc := actuary.Monolithic("soc", "5nm", 800, 2_000_000)
	mcm := mcmSystem(t, "mcm", 800, 2, 2_000_000)
	reqs := []actuary.Request{
		{ID: "total", Question: actuary.QuestionTotalCost, System: mcm},
		{ID: "re", Question: actuary.QuestionRE, System: mcm},
		{ID: "wafers", Question: actuary.QuestionWafers, System: mcm},
		{ID: "payback", Question: actuary.QuestionCrossoverQuantity, Incumbent: soc, Challenger: mcm},
		{ID: "optimal", Question: actuary.QuestionOptimalChipletCount, Node: "5nm",
			ModuleAreaMM2: 800, MaxK: 4, Scheme: actuary.MCM,
			D2D: actuary.D2DFraction(0.10), Quantity: 2_000_000},
		{ID: "turning", Question: actuary.QuestionAreaCrossover, Node: "5nm", K: 2,
			Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.10), LoMM2: 100, HiMM2: 900},
	}
	results := s.Evaluate(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %q failed: %v", reqs[i].ID, r.Err)
		}
		if r.ID != reqs[i].ID || r.Index != i || r.Question != reqs[i].Question {
			t.Errorf("result %d does not echo its request: %+v", i, r)
		}
	}
	if results[0].TotalCost == nil || results[0].TotalCost.Total() <= 0 {
		t.Error("total-cost payload missing")
	}
	if results[1].RE == nil || results[1].RE.Total() <= 0 {
		t.Error("re payload missing")
	}
	if results[2].Wafers == nil || len(results[2].Wafers.WafersByNode) == 0 {
		t.Error("wafers payload missing")
	}
	if results[3].Quantity <= 0 {
		t.Error("crossover quantity payload missing")
	}
	if len(results[4].Points) == 0 {
		t.Error("optimal-chiplet-count payload missing")
	}
	if results[5].AreaMM2 <= 0 {
		t.Error("area-crossover payload missing")
	}
	// The batch answers must agree with a one-request batch on a fresh
	// session.
	single := newTestSession(t).Evaluate(context.Background(), reqs[:1])[0]
	if single.Err != nil {
		t.Fatal(single.Err)
	}
	if got, want := results[0].TotalCost.Total(), single.TotalCost.Total(); got != want {
		t.Errorf("batch total %v != single-shot total %v", got, want)
	}
}

// TestSessionErrorIsolation puts broken requests in the middle of a
// batch and checks the rest still succeed, each failure carrying a
// classified *actuary.Error.
func TestSessionErrorIsolation(t *testing.T) {
	s := newTestSession(t)
	good := mcmSystem(t, "good", 800, 2, 1)
	badNode := good
	badNode.Placements = make([]actuary.Placement, len(good.Placements))
	copy(badNode.Placements, good.Placements)
	badNode.Placements[0].Chiplet.Node = "3nm-imaginary"
	reqs := []actuary.Request{
		{ID: "ok-1", Question: actuary.QuestionRE, System: good},
		{ID: "bad-node", Question: actuary.QuestionRE, System: badNode},
		{ID: "bad-config", Question: actuary.QuestionRE, System: actuary.System{}},
		{ID: "infeasible", Question: actuary.QuestionAreaCrossover, Node: "14nm", K: 2,
			Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.10), LoMM2: 850, HiMM2: 900},
		{ID: "ok-2", Question: actuary.QuestionRE, System: good},
	}
	results := s.Evaluate(context.Background(), reqs)
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good requests failed: %v / %v", results[0].Err, results[4].Err)
	}
	wantCodes := map[int]actuary.ErrorCode{
		1: actuary.ErrUnknownNode,
		2: actuary.ErrInvalidConfig,
	}
	for i, want := range wantCodes {
		ae, ok := actuary.AsError(results[i].Err)
		if !ok {
			t.Fatalf("request %d: error %v is not an *actuary.Error", i, results[i].Err)
		}
		if ae.Code != want {
			t.Errorf("request %d: code %v, want %v", i, ae.Code, want)
		}
		if ae.Index != i || ae.ID != reqs[i].ID {
			t.Errorf("request %d: error does not identify its request: %+v", i, ae)
		}
	}
	// The 14nm 2-chiplet turning point may legitimately sit below the
	// 850 mm² bracket floor (the finder returns the floor), so only
	// check the classification when it does fail.
	if err := results[3].Err; err != nil {
		if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrInfeasible {
			t.Errorf("area-crossover failure not classified infeasible: %v", err)
		}
	}
}

// TestSessionInfeasibleClassification forces a crossover that can
// never pay back and checks the taxonomy code.
func TestSessionInfeasibleClassification(t *testing.T) {
	s := newTestSession(t)
	soc := actuary.Monolithic("soc", "5nm", 200, 1)
	mcm := mcmSystem(t, "mcm", 200, 4, 1) // tiny dies: partitioning loses on RE and NRE
	r := s.Evaluate(context.Background(), []actuary.Request{
		{Question: actuary.QuestionCrossoverQuantity, Incumbent: soc, Challenger: mcm},
	})[0]
	if r.Err == nil {
		t.Skip("4-way partition of 200 mm² unexpectedly pays back; nothing to classify")
	}
	ae, ok := actuary.AsError(r.Err)
	if !ok || ae.Code != actuary.ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", r.Err)
	}
}

// TestSessionContextCancellation checks a canceled context fails the
// remaining requests with ErrCanceled instead of evaluating them.
func TestSessionContextCancellation(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the batch starts
	reqs := make([]actuary.Request, 50)
	for i := range reqs {
		reqs[i] = actuary.Request{ID: fmt.Sprintf("r%d", i),
			Question: actuary.QuestionRE, System: mcmSystem(t, "m", 800, 2, 1)}
	}
	results := s.Evaluate(ctx, reqs)
	for i, r := range results {
		ae, ok := actuary.AsError(r.Err)
		if !ok {
			t.Fatalf("request %d: expected a structured error, got %v", i, r.Err)
		}
		if ae.Code != actuary.ErrCanceled {
			t.Errorf("request %d: code %v, want ErrCanceled", i, ae.Code)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("request %d: error chain lost context.Canceled", i)
		}
	}
}

// TestSessionDeterministicOrdering fans an uneven batch over many
// workers and checks result i always answers request i.
func TestSessionDeterministicOrdering(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(8))
	var reqs []actuary.Request
	for i := 0; i < 120; i++ {
		// Alternate cheap RE lookups with heavier sweep questions so
		// completion order differs from submission order.
		if i%3 == 0 {
			reqs = append(reqs, actuary.Request{
				ID:       fmt.Sprintf("sweep-%d", i),
				Question: actuary.QuestionOptimalChipletCount, Node: "5nm",
				ModuleAreaMM2: 400 + float64(i%5)*100, MaxK: 6,
				Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.10), Quantity: 1_000_000,
			})
		} else {
			reqs = append(reqs, actuary.Request{
				ID:       fmt.Sprintf("re-%d", i),
				Question: actuary.QuestionRE,
				System:   mcmSystem(t, "m", 300+float64(i%7)*50, 1+i%4, 1),
			})
		}
	}
	results := s.Evaluate(context.Background(), reqs)
	for i, r := range results {
		if r.Index != i || r.ID != reqs[i].ID {
			t.Fatalf("result %d answers %q (index %d), want %q", i, r.ID, r.Index, reqs[i].ID)
		}
		if r.Err != nil {
			t.Fatalf("request %q failed: %v", r.ID, r.Err)
		}
	}
}

// TestSessionCachedMatchesUncached runs the same batch on cached and
// cache-disabled sessions and compares every answer.
func TestSessionCachedMatchesUncached(t *testing.T) {
	cached := newTestSession(t)
	uncached := newTestSession(t, actuary.WithCacheSize(0))
	var reqs []actuary.Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, actuary.Request{
			Question: actuary.QuestionTotalCost,
			System:   mcmSystem(t, "m", 400+float64(i%4)*100, 1+i%3, 1_000_000),
		})
	}
	a := cached.Evaluate(context.Background(), reqs)
	b := uncached.Evaluate(context.Background(), reqs)
	for i := range reqs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("request %d failed: %v / %v", i, a[i].Err, b[i].Err)
		}
		if a[i].TotalCost.Total() != b[i].TotalCost.Total() {
			t.Errorf("request %d: cached %v != uncached %v",
				i, a[i].TotalCost.Total(), b[i].TotalCost.Total())
		}
	}
	if st := cached.CacheStats(); st.Hits == 0 {
		t.Errorf("shared KGD cache saw no hits over a repetitive sweep: %+v", st)
	}
	if st := uncached.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", st)
	}
}

// TestSessionHugeCacheBounds checks that the largest table bounds
// price like the defaults, cold and warm: a bound near math.MaxInt
// must not wrap a table shard's share of it negative.
func TestSessionHugeCacheBounds(t *testing.T) {
	reqs := []actuary.Request{{Question: actuary.QuestionTotalCost, System: mcmSystem(t, "m", 500, 4, 1_000_000)}}
	want := newTestSession(t).Evaluate(context.Background(), reqs)[0]
	for _, n := range []int{math.MaxInt, math.MaxInt - 15} {
		s := newTestSession(t, actuary.WithCacheSize(n), actuary.WithPartialsCacheSize(n))
		for pass := 0; pass < 2; pass++ {
			got := s.Evaluate(context.Background(), reqs)[0]
			if got.Err != nil || want.Err != nil {
				t.Fatalf("bound %d, pass %d failed: %v / %v", n, pass, got.Err, want.Err)
			}
			if fmt.Sprintf("%#v", got.TotalCost) != fmt.Sprintf("%#v", want.TotalCost) {
				t.Errorf("bound %d, pass %d: %#v, want %#v", n, pass, got.TotalCost, want.TotalCost)
			}
		}
		if st := s.PartialsCacheStats().NRE; st.Hits != 1 || st.Entries != 1 {
			t.Errorf("bound %d: shape table %+v, want 1 hit and 1 entry", n, st)
		}
	}
}

// TestSessionConcurrentEvaluate drives one session from several
// goroutines at once (run with -race to check the shared cache).
func TestSessionConcurrentEvaluate(t *testing.T) {
	s := newTestSession(t, actuary.WithWorkers(4))
	reqs := make([]actuary.Request, 20)
	for i := range reqs {
		reqs[i] = actuary.Request{Question: actuary.QuestionRE,
			System: mcmSystem(t, "m", 400+float64(i%5)*100, 2, 1)}
	}
	want := s.Evaluate(context.Background(), reqs)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := s.Evaluate(context.Background(), reqs)
			for i := range got {
				if got[i].Err != nil {
					t.Errorf("concurrent request %d failed: %v", i, got[i].Err)
					return
				}
				if got[i].RE.Total() != want[i].RE.Total() {
					t.Errorf("concurrent request %d: %v != %v",
						i, got[i].RE.Total(), want[i].RE.Total())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionEmptyBatch checks the degenerate call.
func TestSessionEmptyBatch(t *testing.T) {
	s := newTestSession(t)
	if got := s.Evaluate(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// TestQuestionRoundTrip checks every question name parses back.
func TestQuestionRoundTrip(t *testing.T) {
	for _, q := range []actuary.Question{
		actuary.QuestionTotalCost, actuary.QuestionRE, actuary.QuestionWafers,
		actuary.QuestionCrossoverQuantity, actuary.QuestionOptimalChipletCount,
		actuary.QuestionAreaCrossover,
	} {
		got, err := actuary.ParseQuestion(q.String())
		if err != nil || got != q {
			t.Errorf("round trip of %v failed: %v, %v", q, got, err)
		}
	}
	if _, err := actuary.ParseQuestion("nonsense"); err == nil {
		t.Error("nonsense question accepted")
	}
}

// TestSessionWaferFitClassification checks a die too large for the
// wafer fails with the typed sentinel and an invalid-config code.
func TestSessionWaferFitClassification(t *testing.T) {
	s := newTestSession(t)
	huge := actuary.Monolithic("huge", "5nm", 45_000, 1000)
	r := s.Evaluate(context.Background(), []actuary.Request{
		{ID: "huge", Question: actuary.QuestionWafers, System: huge},
	})[0]
	ae, ok := actuary.AsError(r.Err)
	if !ok {
		t.Fatalf("want a structured error, got %v", r.Err)
	}
	if ae.Code != actuary.ErrInvalidConfig {
		t.Errorf("code %v, want ErrInvalidConfig", ae.Code)
	}
	if !errors.Is(r.Err, actuary.ErrDoesNotFitWafer) {
		t.Errorf("error chain %v lost ErrDoesNotFitWafer", r.Err)
	}
}

// BenchmarkNewSession measures building a default Session, as a Monte
// Carlo or co-optimization loop does once per sampled scenario: its
// memo tables start empty and grow as keys arrive, so construction
// costs a few allocations, not the tables' full bounds.
func BenchmarkNewSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := actuary.NewSession(); err != nil {
			b.Fatal(err)
		}
	}
}
