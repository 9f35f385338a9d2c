package actuary_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"chipletactuary"
)

var update = flag.Bool("update", false, "rewrite testdata/metricz.golden.json from the current wire form")

// reencode marshals v, unmarshals into out (a pointer), and returns
// the first marshaling plus the re-marshaling of the decoded value —
// both must match for a stable wire form.
func reencode(t *testing.T, v any, out any) (first, second []byte) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	if err := json.Unmarshal(first, out); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", out, first, err)
	}
	second, err = json.Marshal(out)
	if err != nil {
		t.Fatalf("re-marshal %T: %v", out, err)
	}
	if string(first) != string(second) {
		t.Fatalf("wire form not stable:\n first: %s\nsecond: %s", first, second)
	}
	return first, second
}

func TestQuestionWireRoundTrip(t *testing.T) {
	all := []actuary.Question{
		actuary.QuestionTotalCost, actuary.QuestionRE, actuary.QuestionWafers,
		actuary.QuestionCrossoverQuantity, actuary.QuestionOptimalChipletCount,
		actuary.QuestionAreaCrossover, actuary.QuestionSweepBest,
	}
	for _, q := range all {
		data, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %v: %v", q, err)
		}
		var back actuary.Question
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != q {
			t.Errorf("round trip %v -> %s -> %v", q, data, back)
		}
	}
	if _, err := json.Marshal(actuary.Question(99)); err == nil {
		t.Error("marshaling an unknown question should fail")
	}
	var q actuary.Question
	if err := json.Unmarshal([]byte(`"no-such-question"`), &q); err == nil {
		t.Error("unknown question name should be rejected")
	}
}

func TestErrorCodeWireRoundTrip(t *testing.T) {
	for _, c := range []actuary.ErrorCode{actuary.ErrInvalidConfig, actuary.ErrUnknownNode,
		actuary.ErrInfeasible, actuary.ErrCanceled, actuary.ErrTransport} {
		parsed, err := actuary.ParseErrorCode(c.String())
		if err != nil || parsed != c {
			t.Errorf("ParseErrorCode(%q) = %v, %v", c.String(), parsed, err)
		}
	}
	if _, err := actuary.ParseErrorCode("nonsense"); err == nil {
		t.Error("unknown error code should be rejected")
	}
}

func TestErrorWireRoundTrip(t *testing.T) {
	orig := &actuary.Error{
		Code:     actuary.ErrUnknownNode,
		Index:    3,
		ID:       "sweep-a800-k4/total-cost",
		Question: actuary.QuestionTotalCost,
		Err:      errors.New("tech: unknown node \"3nm\""),
	}
	var back actuary.Error
	reencode(t, orig, &back)
	if back.Code != orig.Code || back.Index != orig.Index || back.ID != orig.ID ||
		back.Question != orig.Question {
		t.Errorf("structured fields lost: %+v", back)
	}
	if back.Err == nil || back.Err.Error() != orig.Err.Error() {
		t.Errorf("cause message lost: %v", back.Err)
	}

	var e actuary.Error
	if err := json.Unmarshal([]byte(`{"code":"unknown-node","surprise":1}`), &e); err == nil {
		t.Error("unknown field should be rejected")
	}
	if err := json.Unmarshal([]byte(`{"code":"not-a-code"}`), &e); err == nil {
		t.Error("unknown code should be rejected")
	}
}

func TestErrorWireWithoutQuestion(t *testing.T) {
	// Transport-style errors carry no question; the round trip must
	// not let the zero value masquerade as total-cost.
	orig := &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1,
		Err: errors.New("connection refused")}
	var back actuary.Error
	first, _ := reencode(t, orig, &back)
	if strings.Contains(string(first), "question") {
		t.Errorf("question-less error leaked a question field: %s", first)
	}
	if back.Question != -1 {
		t.Errorf("absent question decoded to %v, want -1", back.Question)
	}
	if strings.Contains(back.Error(), "total-cost") {
		t.Errorf("rendered error invents a question: %s", back.Error())
	}
}

func mustPartition(t *testing.T, name string, k int) actuary.System {
	t.Helper()
	s, err := actuary.PartitionEqual(name, "7nm", 600, k, actuary.MCM, actuary.D2DFraction(0.10), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRequestWireRoundTrip(t *testing.T) {
	grid := &actuary.SweepGrid{
		Name:       "g",
		Nodes:      []string{"5nm", "7nm"},
		Schemes:    []actuary.Scheme{actuary.MCM, actuary.TwoPointFiveD},
		AreasMM2:   []float64{400, 800},
		Counts:     []int{1, 2, 4},
		Quantities: []float64{2_000_000},
		D2D:        actuary.D2DFraction(0.10),
	}
	reqs := []actuary.Request{
		{ID: "soc", Question: actuary.QuestionTotalCost,
			System: actuary.Monolithic("big", "5nm", 800, 2_000_000), Policy: actuary.PerInstance},
		{Question: actuary.QuestionRE, System: mustPartition(t, "mcm", 4)},
		{ID: "w", Question: actuary.QuestionWafers,
			System: actuary.Monolithic("w", "7nm", 300, 1e6), Quantity: 5e6},
		{ID: "pay", Question: actuary.QuestionCrossoverQuantity,
			Incumbent:  actuary.Monolithic("inc", "7nm", 600, 1),
			Challenger: mustPartition(t, "ch", 2)},
		{ID: "opt", Question: actuary.QuestionOptimalChipletCount, Node: "5nm",
			ModuleAreaMM2: 800, MaxK: 8, Scheme: actuary.InFO,
			D2D: actuary.D2DFraction(0.10), Quantity: 2e6},
		{ID: "turn", Question: actuary.QuestionAreaCrossover, Node: "5nm", K: 2,
			Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.08), LoMM2: 100, HiMM2: 900},
		{ID: "best", Question: actuary.QuestionSweepBest, Grid: grid, TopK: 5},
	}
	for _, req := range reqs {
		var back actuary.Request
		data, _ := reencode(t, req, &back)
		if !reflect.DeepEqual(req, back) {
			t.Errorf("request %q did not round trip:\nwire: %s\n got: %+v\nwant: %+v",
				req.ID, data, back, req)
		}
	}
}

func TestRequestWireD2DModels(t *testing.T) {
	models := []actuary.D2DOverhead{
		actuary.D2DNone(),
		actuary.D2DFraction(0.12),
		actuary.D2DBeachfront{PHY: actuary.MCMSerDes, BandwidthGBs: 400, EdgesAvailable: 2},
		actuary.D2DScaled{Topology: actuary.D2DMesh, Count: 4, AreaPerLinkMM2: 1.5, FixedMM2: 2},
	}
	for _, m := range models {
		req := actuary.Request{ID: "d2d", Question: actuary.QuestionAreaCrossover,
			Node: "7nm", K: 2, Scheme: actuary.MCM, D2D: m, LoMM2: 100, HiMM2: 900}
		var back actuary.Request
		reencode(t, req, &back)
		if !reflect.DeepEqual(req, back) {
			t.Errorf("D2D model %T did not round trip: %+v", m, back.D2D)
		}
	}
}

func TestRequestWireRejectsUnknown(t *testing.T) {
	var req actuary.Request
	cases := map[string]string{
		"unknown field":    `{"question":"re","bogus":1}`,
		"unknown question": `{"question":"divine"}`,
		"missing question": `{"id":"a","node":"5nm"}`,
		"unknown d2d kind": `{"question":"re","d2d":{"kind":"psychic"}}`,
		"mixed d2d union":  `{"question":"re","d2d":{"kind":"fraction","fraction":0.1,"bandwidth_gbs":500}}`,
		"none with cargo":  `{"question":"re","d2d":{"kind":"none","fraction":0.1}}`,
		"unknown scheme":   `{"question":"re","scheme":"3D"}`,
		"trailing garbage": `{"question":"re"} {}`,
	}
	for name, body := range cases {
		if err := json.Unmarshal([]byte(body), &req); err == nil {
			t.Errorf("%s should be rejected: %s", name, body)
		}
	}
}

// evaluateAll answers one request per question kind so result
// round-trips cover every payload arm.
func evaluateAll(t *testing.T) []actuary.Result {
	t.Helper()
	s, err := actuary.NewSession(actuary.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	grid := &actuary.SweepGrid{Name: "g", Nodes: []string{"7nm"},
		Schemes: []actuary.Scheme{actuary.MCM}, AreasMM2: []float64{400, 600},
		Counts: []int{1, 2, 3}, Quantities: []float64{2e6}, D2D: actuary.D2DFraction(0.10)}
	return s.Evaluate(t.Context(), []actuary.Request{
		{ID: "tc", Question: actuary.QuestionTotalCost, System: actuary.Monolithic("m", "7nm", 500, 2e6)},
		{ID: "re", Question: actuary.QuestionRE, System: mustPartition(t, "p", 2)},
		{ID: "w", Question: actuary.QuestionWafers, System: actuary.Monolithic("w", "7nm", 300, 1e6)},
		{ID: "pay", Question: actuary.QuestionCrossoverQuantity,
			Incumbent: actuary.Monolithic("inc", "7nm", 600, 1), Challenger: mustPartition(t, "ch", 2)},
		{ID: "opt", Question: actuary.QuestionOptimalChipletCount, Node: "7nm",
			ModuleAreaMM2: 700, MaxK: 6, Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.10), Quantity: 2e6},
		{ID: "turn", Question: actuary.QuestionAreaCrossover, Node: "7nm", K: 3,
			Scheme: actuary.MCM, D2D: actuary.D2DFraction(0.10), LoMM2: 100, HiMM2: 900},
		{ID: "best", Question: actuary.QuestionSweepBest, Grid: grid, TopK: 3},
		{ID: "bad", Question: actuary.QuestionTotalCost, System: actuary.Monolithic("x", "2nm", 500, 1e6)},
	})
}

func TestResultWireRoundTrip(t *testing.T) {
	for _, res := range evaluateAll(t) {
		var back actuary.Result
		data, _ := reencode(t, res, &back)
		// Error chains flatten to their message on the wire; compare
		// them textually, then strip for the deep comparison.
		if (res.Err == nil) != (back.Err == nil) {
			t.Fatalf("result %q error presence changed: %v vs %v", res.ID, res.Err, back.Err)
		}
		if res.Err != nil {
			ae, _ := actuary.AsError(res.Err)
			be, ok := actuary.AsError(back.Err)
			if !ok || be.Code != ae.Code || be.Err.Error() != ae.Err.Error() {
				t.Errorf("result %q error did not survive: %v vs %v", res.ID, res.Err, back.Err)
			}
			res.Err, back.Err = nil, nil
		}
		if res.SweepBest != nil && res.SweepBest.FirstFailure != nil {
			// The failure crosses the wire in structured form: the
			// cause message must survive even though the Go chain
			// flattens, and the classified code rides along.
			want := res.SweepBest.FirstFailure.Error()
			if ae, ok := actuary.AsError(res.SweepBest.FirstFailure); ok {
				want = ae.Err.Error()
			}
			be, ok := actuary.AsError(back.SweepBest.FirstFailure)
			if !ok || be.Err.Error() != want {
				t.Errorf("result %q sweep first-failure did not survive: %v", res.ID, back.SweepBest.FirstFailure)
			}
			res.SweepBest.FirstFailure, back.SweepBest.FirstFailure = nil, nil
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("result %q did not round trip:\nwire: %s\n got: %+v\nwant: %+v",
				res.ID, data, back, res)
		}
	}
}

func TestResultWireRejectsUnknownField(t *testing.T) {
	var res actuary.Result
	if err := json.Unmarshal([]byte(`{"question":"re","mystery":true}`), &res); err == nil {
		t.Error("unknown result field should be rejected")
	}
}

func TestTotalCostWireRoundTrip(t *testing.T) {
	s, err := actuary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res := s.Evaluate(t.Context(), []actuary.Request{{
		Question: actuary.QuestionTotalCost, System: mustPartition(t, "p", 3)}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var back actuary.TotalCost
	reencode(t, res.TotalCost, &back)
	if !reflect.DeepEqual(*res.TotalCost, back) {
		t.Errorf("total cost did not round trip: %+v vs %+v", *res.TotalCost, back)
	}
	if back.Total() != res.TotalCost.Total() {
		t.Errorf("totals diverge: %v vs %v", back.Total(), res.TotalCost.Total())
	}
}

func TestDecodeRequestsStrict(t *testing.T) {
	reqs, err := actuary.DecodeRequests([]byte(`[{"question":"re","system":{"name":"x","scheme":"SoC","placements":[{"chiplet":{"name":"d","node":"7nm","modules":[{"name":"m","area_mm2":100,"scalable":true}]},"count":1}],"quantity":1}}]`))
	if err != nil || len(reqs) != 1 {
		t.Fatalf("DecodeRequests: %v (%d)", err, len(reqs))
	}
	if reqs[0].System.Name != "x" || reqs[0].System.Placements[0].Chiplet.Node != "7nm" {
		t.Errorf("system fields lost: %+v", reqs[0].System)
	}
	if _, err := actuary.DecodeRequests([]byte(`[{"question":"re","oops":1}]`)); err == nil {
		t.Error("unknown field inside a batch should be rejected")
	}
	if _, err := actuary.DecodeRequests([]byte(`[] trailing`)); err == nil {
		t.Error("trailing garbage should be rejected")
	}
}

func TestQuestionsCoverTheAPI(t *testing.T) {
	infos := actuary.Questions()
	if len(infos) != 8 {
		t.Fatalf("Questions() lists %d entries, want 8", len(infos))
	}
	for _, info := range infos {
		q, err := actuary.ParseQuestion(info.Name)
		if err != nil {
			t.Errorf("advertised question %q does not parse: %v", info.Name, err)
		}
		if q.String() != info.Name {
			t.Errorf("advertised name %q is not canonical (String says %q)", info.Name, q)
		}
		for _, alias := range info.Aliases {
			if _, err := actuary.ParseQuestion(alias); err != nil {
				t.Errorf("advertised alias %q does not parse: %v", alias, err)
			}
		}
		if info.Summary == "" || len(info.Fields) == 0 {
			t.Errorf("question %q lacks a summary or fields", info.Name)
		}
	}
}

func TestScenarioVocabularyMatchesWire(t *testing.T) {
	// The wire form of a Scheme/Flow/Policy must be exactly what the
	// scenario schema accepts, so the two formats cannot drift.
	for _, s := range []actuary.Scheme{actuary.SoC, actuary.MCM, actuary.InFO, actuary.TwoPointFiveD} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		label := strings.Trim(string(data), `"`)
		if parsed, err := actuary.ParseScheme(label); err != nil || parsed != s {
			t.Errorf("scheme wire label %q does not parse back: %v", label, err)
		}
	}
	for _, p := range []actuary.AmortizationPolicy{actuary.PerSystemUnit, actuary.PerInstance} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		label := strings.Trim(string(data), `"`)
		if parsed, err := actuary.ParsePolicy(label); err != nil || parsed != p {
			t.Errorf("policy wire label %q does not parse back: %v", label, err)
		}
	}
}

func TestRequestWireShardSpec(t *testing.T) {
	grid := &actuary.SweepGrid{Name: "g", Nodes: []string{"7nm"},
		Schemes: []actuary.Scheme{actuary.MCM}, AreasMM2: []float64{400},
		Counts: []int{1, 2}, Quantities: []float64{2e6}}
	req := actuary.Request{ID: "shard", Question: actuary.QuestionSweepBest,
		Grid: grid, TopK: 3, ShardIndex: 2, ShardCount: 5}
	var back actuary.Request
	data, _ := reencode(t, req, &back)
	if !reflect.DeepEqual(req, back) {
		t.Errorf("sharded request did not round trip:\nwire: %s\n got: %+v", data, back)
	}
	for _, want := range []string{`"shard_index":2`, `"shard_count":5`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire form %s lacks %s", data, want)
		}
	}
	// The unsharded request keeps the fields off the wire entirely.
	req.ShardIndex, req.ShardCount = 0, 0
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "shard_index") || strings.Contains(string(plain), "shard_count") {
		t.Errorf("unsharded request leaks shard fields: %s", plain)
	}
}

func TestShardSpecValidation(t *testing.T) {
	grid := &actuary.SweepGrid{Name: "g", Nodes: []string{"7nm"},
		Schemes: []actuary.Scheme{actuary.MCM}, AreasMM2: []float64{400},
		Counts: []int{1, 2}, Quantities: []float64{2e6}}
	s, err := actuary.NewSession(actuary.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []actuary.Request{
		{Question: actuary.QuestionSweepBest, Grid: grid, ShardIndex: 2, ShardCount: 2},
		{Question: actuary.QuestionSweepBest, Grid: grid, ShardIndex: -1, ShardCount: 2},
		{Question: actuary.QuestionSweepBest, Grid: grid, ShardIndex: 1},
		{Question: actuary.QuestionSweepBest, Grid: grid, ShardCount: -1},
		// Only sweep-best accepts a shard spec at all.
		{Question: actuary.QuestionRE, System: actuary.Monolithic("m", "7nm", 500, 1e6), ShardCount: 2},
	}
	for i, req := range bad {
		res := s.Evaluate(t.Context(), []actuary.Request{req})[0]
		if res.Err == nil {
			t.Errorf("case %d: invalid shard spec accepted", i)
			continue
		}
		if ae, ok := actuary.AsError(res.Err); !ok || ae.Code != actuary.ErrInvalidConfig {
			t.Errorf("case %d: error %v, want invalid-config", i, res.Err)
		}
	}
}

// TestSweepBestFirstFailureSurvivesWire: an empty shard's FirstFailure
// keeps its classified code across the wire, so a merged all-empty
// sweep explains a typo'd node as unknown-node even when every shard
// was answered by a remote daemon.
func TestSweepBestFirstFailureSurvivesWire(t *testing.T) {
	s, err := actuary.NewSession(actuary.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	grid := &actuary.SweepGrid{Name: "typo", Nodes: []string{"not-a-node"},
		Schemes: []actuary.Scheme{actuary.MCM}, AreasMM2: []float64{400},
		Counts: []int{2}, Quantities: []float64{1e6}}
	res := s.Evaluate(t.Context(), []actuary.Request{{
		Question: actuary.QuestionSweepBest, Grid: grid, ShardIndex: 0, ShardCount: 2,
	}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SweepBest.FirstFailure == nil {
		t.Fatal("empty shard kept no first failure")
	}
	var back actuary.SweepBest
	data, err := json.Marshal(res.SweepBest)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	fe, ok := actuary.AsError(back.FirstFailure)
	if !ok || fe.Code != actuary.ErrUnknownNode {
		t.Fatalf("decoded first failure = %v, want structured unknown-node", back.FirstFailure)
	}
	// The merge layer routes on that code: all shards empty ⇒ the
	// merged error classifies unknown-node, exactly like a local chain.
	merger := actuary.NewSweepBestMerger(1)
	merger.Add(&back)
	_, err = merger.Result(grid.Name)
	if ae, ok := actuary.AsError(err); !ok || ae.Code != actuary.ErrUnknownNode {
		t.Errorf("merged error = %v, want classified unknown-node", err)
	}
}

func TestSweepBestLegacyFirstFailureDecodes(t *testing.T) {
	// Earlier v1 encoders shipped first_failure as a bare message
	// string; a newer reader must still decode it (to the same opaque
	// error it always produced, without a code).
	legacy := `{"top":[],"pareto":[],"summary":{"count":0,"min":0,"max":0,"sum":0},` +
		`"infeasible":1,"first_failure":"tech: unknown node \"2nm\""}`
	var b actuary.SweepBest
	if err := json.Unmarshal([]byte(legacy), &b); err != nil {
		t.Fatalf("legacy first_failure rejected: %v", err)
	}
	if b.FirstFailure == nil || !strings.Contains(b.FirstFailure.Error(), "unknown node") {
		t.Errorf("legacy first_failure = %v", b.FirstFailure)
	}
	if _, ok := actuary.AsError(b.FirstFailure); ok {
		t.Error("legacy string invented a structured error code")
	}
	// Garbage in the field is still rejected.
	if err := json.Unmarshal([]byte(`{"top":[],"pareto":[],"summary":{"count":0,"min":0,"max":0,"sum":0},"first_failure":42}`), &b); err == nil {
		t.Error("numeric first_failure accepted")
	}
}

func TestQuestionInfoShardable(t *testing.T) {
	// Exactly the two grid questions accept request-level shard
	// specs; the scenario stream stripes everything else.
	want := map[string]bool{"sweep-best": true, "search-best": true}
	for _, info := range actuary.Questions() {
		if info.Shardable != want[info.Name] {
			t.Errorf("question %q advertises shardable=%v", info.Name, info.Shardable)
		}
	}
}

func TestQuestionInfoWireRoundTrip(t *testing.T) {
	for _, info := range actuary.Questions() {
		data, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"shardable":`) {
			t.Fatalf("question %q wire form omits shardable: %s", info.Name, data)
		}
		var back actuary.QuestionInfo
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("question %q: %v", info.Name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("question %q round trip drifted:\n%s\n%s", info.Name, data, again)
		}
	}
	var q actuary.QuestionInfo
	err := json.Unmarshal([]byte(`{"name":"x","summary":"s","fields":["f"],"sharded":true}`), &q)
	if err == nil {
		t.Fatal("unknown field decoded without error")
	}
}

func TestMetricsSnapshotWireRoundTrip(t *testing.T) {
	snap := actuary.MetricsSnapshot{
		Workers: 5,
		Session: actuary.SessionMetrics{
			StreamsStarted: 3, StreamsCompleted: 2,
			QueueDepth: 1, QueueDepthMax: 7, QueueDepthSamples: 40, QueueDepthSum: 90,
			InFlight: 2, InFlightMax: 5,
			WorkerBusy: 1500 * time.Millisecond, WorkerTime: 2 * time.Second,
			PerQuestion: []actuary.QuestionMetrics{{
				Question: actuary.QuestionSweepBest, Count: 12, Failures: 1,
				TotalLatency: time.Second, MaxLatency: 200 * time.Millisecond,
			}},
		},
		Cache: actuary.KGDCacheStats{Hits: 10, Misses: 4, Entries: 4},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, field := range []string{`"workers":5`, `"queue_depth_sum":90`,
		`"worker_busy_ns":1500000000`, `"question":"sweep-best"`, `"cache_hits":10`} {
		if !strings.Contains(text, field) {
			t.Errorf("wire form lacks %s:\n%s", field, text)
		}
	}
	var back actuary.MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", back, snap)
	}
}

func TestMetricsSnapshotWireRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":          `{"workers":1,"bogus":2}`,
		"negative counter":       `{"workers":-1}`,
		"negative worker time":   `{"worker_time_ns":-5}`,
		"negative per-question":  `{"per_question":[{"question":"sweep-best","count":-1,"total_ns":0,"max_ns":0}]}`,
		"trailing garbage":       `{"workers":1} {}`,
		"negative queue samples": `{"queue_depth_samples":-2}`,
	}
	for name, raw := range cases {
		var snap actuary.MetricsSnapshot
		if err := json.Unmarshal([]byte(raw), &snap); err == nil {
			t.Errorf("%s: accepted %s", name, raw)
		}
	}
}

// fullMetricsSnapshot sets every field of a MetricsSnapshot to a
// distinct value, with two per-question rows, so a dropped, renamed or
// swapped wire field shows in the golden file.
func fullMetricsSnapshot() actuary.MetricsSnapshot {
	return actuary.MetricsSnapshot{
		Workers: 6,
		Session: actuary.SessionMetrics{
			StreamsStarted: 11, StreamsCompleted: 9,
			QueueDepth: 3, QueueDepthMax: 17, QueueDepthSamples: 420, QueueDepthSum: 1234,
			InFlight: 4, InFlightMax: 8,
			WorkerBusy: 1500 * time.Millisecond, WorkerTime: 2500 * time.Millisecond,
			PerQuestion: []actuary.QuestionMetrics{
				{Question: actuary.QuestionRE, Count: 400, Failures: 2,
					TotalLatency: 800 * time.Millisecond, MaxLatency: 30 * time.Millisecond},
				{Question: actuary.QuestionSweepBest, Count: 12, Failures: 1,
					TotalLatency: 700 * time.Millisecond, MaxLatency: 90 * time.Millisecond},
			},
		},
		Cache: actuary.KGDCacheStats{Hits: 1000, Misses: 52, Entries: 48},
	}
}

// zeroFields lists the paths of v's struct fields, slice elements
// included, that hold their zero value.
func zeroFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Struct:
		var zero []string
		for i := 0; i < v.NumField(); i++ {
			zero = append(zero, zeroFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return zero
	case reflect.Slice:
		var zero []string
		if v.Len() == 0 {
			zero = append(zero, path)
		}
		for i := 0; i < v.Len(); i++ {
			zero = append(zero, zeroFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
		return zero
	}
	if v.IsZero() {
		return []string{path}
	}
	return nil
}

// TestMetricsSnapshotGolden pins the GET /v1/metricz wire form byte for
// byte against testdata/metricz.golden.json, then strict-decodes the
// file back to an equal value, so an old daemon's snapshot still
// decodes after a field changes. Regenerate with
//
//	go test . -run TestMetricsSnapshotGolden -update
//
// and say in the change which wire fields moved and why.
func TestMetricsSnapshotGolden(t *testing.T) {
	snap := fullMetricsSnapshot()
	if zero := zeroFields(reflect.ValueOf(snap), "MetricsSnapshot"); len(zero) > 0 {
		t.Fatalf("the golden snapshot leaves fields at zero: %v", zero)
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "metricz.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire form differs from %s:\n got %s\nwant %s", path, got, want)
	}
	var back actuary.MetricsSnapshot
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("strict decode of %s: %v", path, err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("%s decodes to\n%+v\nwant\n%+v", path, back, snap)
	}
}
