package actuary

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"chipletactuary/internal/cost"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/sweep"
	"chipletactuary/internal/tech"
)

// PartitionPoint is one entry of a chiplet-count sweep (see
// Session.Evaluate with QuestionOptimalChipletCount).
type PartitionPoint = explore.PartitionPoint

// KGDCacheStats reports the shared die-cost cache's counters.
type KGDCacheStats = cost.CacheStats

// Question selects what a Request asks about.
type Question int

const (
	// QuestionTotalCost evaluates Request.System's RE plus amortized
	// NRE under Request.Policy (§3.2 + §3.3).
	QuestionTotalCost Question = iota
	// QuestionRE evaluates only the recurring cost of Request.System.
	QuestionRE
	// QuestionWafers computes the wafer starts per node needed to ship
	// Request.Quantity units of Request.System (defaults to the
	// system's own quantity).
	QuestionWafers
	// QuestionCrossoverQuantity finds the production quantity at which
	// Request.Challenger's total per-unit cost drops to
	// Request.Incumbent's (§4.2).
	QuestionCrossoverQuantity
	// QuestionOptimalChipletCount sweeps partitions 1..Request.MaxK of
	// Request.ModuleAreaMM2 on Request.Node and returns the feasible
	// points plus the cheapest (§6).
	QuestionOptimalChipletCount
	// QuestionAreaCrossover finds the module area in
	// [Request.LoMM2, Request.HiMM2] where Request.K chiplets start
	// beating the monolithic SoC on RE (§4.1).
	QuestionAreaCrossover
	// QuestionSweepBest streams Request.Grid through online
	// aggregators and returns the Request.TopK cheapest points, the
	// RE-vs-NRE Pareto front and a summary — O(K) memory however large
	// the grid.
	QuestionSweepBest
	// QuestionSearchBest answers the same best-points question as
	// QuestionSweepBest but adaptively: coarse-to-fine refinement,
	// successive halving and lower-bound pruning (Request.Search)
	// evaluate a fraction of Request.Grid's candidates. A pruning-only
	// spec reproduces the exhaustive top-K exactly; refinement and
	// halving trade exactness for evaluations within the spec's
	// tolerance. The answer reports what was actually walked
	// (SearchBest.Stats).
	QuestionSearchBest
)

// String implements fmt.Stringer with the names ParseQuestion accepts.
func (q Question) String() string {
	switch q {
	case QuestionTotalCost:
		return "total-cost"
	case QuestionRE:
		return "re"
	case QuestionWafers:
		return "wafers"
	case QuestionCrossoverQuantity:
		return "crossover-quantity"
	case QuestionOptimalChipletCount:
		return "optimal-chiplet-count"
	case QuestionAreaCrossover:
		return "area-crossover"
	case QuestionSweepBest:
		return "sweep-best"
	case QuestionSearchBest:
		return "search-best"
	default:
		return fmt.Sprintf("Question(%d)", int(q))
	}
}

// ParseQuestion converts a scenario-file question name to a Question.
func ParseQuestion(name string) (Question, error) {
	switch strings.ToLower(name) {
	case "total-cost", "total":
		return QuestionTotalCost, nil
	case "re", "recurring":
		return QuestionRE, nil
	case "wafers":
		return QuestionWafers, nil
	case "crossover-quantity", "payback":
		return QuestionCrossoverQuantity, nil
	case "optimal-chiplet-count", "optimal-k":
		return QuestionOptimalChipletCount, nil
	case "area-crossover", "turning":
		return QuestionAreaCrossover, nil
	case "sweep-best", "best":
		return QuestionSweepBest, nil
	case "search-best", "search":
		return QuestionSearchBest, nil
	default:
		return 0, fmt.Errorf("actuary: unknown question %q (want total-cost, re, wafers, crossover-quantity, optimal-chiplet-count, area-crossover, sweep-best or search-best)", name)
	}
}

// Request is one question of a batch. Only the fields the question
// consumes need to be set:
//
//	QuestionTotalCost            System, Policy
//	QuestionRE                   System
//	QuestionWafers               System, Quantity (0 ⇒ System.Quantity)
//	QuestionCrossoverQuantity    Incumbent, Challenger
//	QuestionOptimalChipletCount  Node, ModuleAreaMM2, MaxK, Scheme, D2D, Quantity
//	QuestionAreaCrossover        Node, K, Scheme, D2D, LoMM2, HiMM2
//	QuestionSweepBest            Grid, TopK, Policy
//	QuestionSearchBest           Grid, TopK, Policy, Search
type Request struct {
	// ID optionally labels the request; it is echoed in the Result and
	// in structured errors. Purely for the caller's bookkeeping.
	ID string
	// Question selects the evaluation.
	Question Question

	// System is the subject of TotalCost, RE and Wafers questions.
	System System
	// Policy selects NRE amortization for TotalCost (the zero value is
	// PerSystemUnit, the paper's default).
	Policy AmortizationPolicy
	// Quantity is the production volume for Wafers (0 falls back to
	// System.Quantity) and OptimalChipletCount.
	Quantity float64

	// Incumbent and Challenger are the two designs compared by
	// CrossoverQuantity.
	Incumbent  System
	Challenger System

	// Node, ModuleAreaMM2, Scheme and D2D describe the design space of
	// the sweep questions. A nil D2D means zero interface overhead.
	Node          string
	ModuleAreaMM2 float64
	Scheme        Scheme
	D2D           D2DOverhead
	// MaxK bounds the OptimalChipletCount sweep; K is the fixed
	// partition count of AreaCrossover.
	MaxK int
	K    int
	// LoMM2 and HiMM2 bracket the AreaCrossover search.
	LoMM2 float64
	HiMM2 float64

	// Grid declares the design space of a SweepBest request; it is
	// expanded lazily, never materialized. TopK bounds the best-point
	// list (0 means 1).
	Grid *SweepGrid
	TopK int
	// ShardIndex and ShardCount restrict a SweepBest request to one
	// stripe of its grid's candidate index space: shard ShardIndex of
	// ShardCount (0 ≤ ShardIndex < ShardCount). ShardCount 0 means
	// unsharded. A sharded answer covers only its stripe — an empty
	// stripe is a valid empty SweepBest, not an error — and the
	// ShardCount answers of a grid merge into exactly the unsharded
	// answer (see SweepBestMerger). SearchBest requests accept the
	// same spec: each shard searches its own stripe adaptively. Other
	// questions reject a non-zero shard spec.
	ShardIndex int
	ShardCount int

	// Search configures a SearchBest request's adaptive strategies;
	// nil means lower-bound pruning only (exhaustive-exact answer).
	Search *SearchSpec
}

// Result is the answer to one Request. Index, ID and Question echo
// the request; exactly one of the payload fields is populated on
// success, selected by the question. On failure Err holds an *Error
// and the payload fields are zero.
type Result struct {
	// Index is the request's position in the batch — results are
	// always returned in input order, so Results[i].Index == i.
	Index int
	// ID echoes Request.ID.
	ID string
	// Question echoes Request.Question.
	Question Question

	// TotalCost answers QuestionTotalCost.
	TotalCost *TotalCost
	// RE answers QuestionRE.
	RE *REBreakdown
	// Wafers answers QuestionWafers.
	Wafers *WaferDemand
	// Quantity answers QuestionCrossoverQuantity.
	Quantity float64
	// AreaMM2 answers QuestionAreaCrossover.
	AreaMM2 float64
	// Points and Best answer QuestionOptimalChipletCount.
	Points []PartitionPoint
	Best   int
	// SweepBest answers QuestionSweepBest.
	SweepBest *SweepBest
	// SearchBest answers QuestionSearchBest.
	SearchBest *SearchBest

	// Err is nil on success and an *Error otherwise; one bad request
	// never fails the rest of the batch.
	Err error
}

// SweepPoint pairs one generated design point with its evaluated cost.
type SweepPoint struct {
	// ID, Node, Scheme, AreaMM2, K and Quantity identify the design
	// point (see DesignPoint).
	ID       string
	Node     string
	Scheme   Scheme
	AreaMM2  float64
	K        int
	Quantity float64
	// Total is the point's RE + amortized-NRE cost.
	Total TotalCost
}

// SweepBest is the payload of QuestionSweepBest: the online reductions
// of one streamed design-space sweep.
type SweepBest struct {
	// Top holds the K cheapest feasible points, ascending total cost.
	Top []SweepPoint
	// Pareto is the RE-vs-amortized-NRE front, ascending RE.
	Pareto []SweepPoint
	// Summary covers every feasible point's total cost.
	Summary SweepSummary
	// Pruned counts points dropped before evaluation (reticle or
	// interposer infeasibility); Deduped counts scheme-duplicate
	// monolithic candidates skipped on multi-scheme grids; Infeasible
	// counts points that failed during evaluation, with FirstFailure
	// retaining the first such error so a typo'd axis value (an
	// unknown node, say) does not silently shrink the answered space.
	// FirstFailureCandidate is the failing point's position in the
	// grid's odometer order — shard answers carry it so the merge
	// layer reports the globally first failure, exactly like an
	// unsharded walk, whatever the fan-out.
	Pruned                int
	Deduped               int
	Infeasible            int
	FirstFailure          error
	FirstFailureCandidate int
}

// Option configures a Session (functional options).
type Option func(*sessionConfig)

type sessionConfig struct {
	db           *TechDatabase
	params       PackagingParams
	hasParams    bool
	workers      int
	minWorkers   int
	maxWorkers   int
	hasBounds    bool
	cacheSize    int
	hasCacheSz   bool
	partialsSize int
	hasPartials  bool
}

// WithTech selects the technology database (default: the built-in
// one).
func WithTech(db *TechDatabase) Option {
	return func(c *sessionConfig) { c.db = db }
}

// WithPackaging selects the packaging parameters (default: the
// calibrated constants).
func WithPackaging(p PackagingParams) Option {
	return func(c *sessionConfig) { c.params = p; c.hasParams = true }
}

// WithWorkers sets how many goroutines Evaluate fans a batch out
// over. The default is runtime.GOMAXPROCS(0); values below 1 are
// raised to 1.
func WithWorkers(n int) Option {
	return func(c *sessionConfig) { c.workers = n }
}

// WithWorkerBounds makes the worker pool elastic: Session.Resize (and
// controllers built on it, such as fleet.Resizer) may move the pool
// width anywhere in [min, max] while streams are running. min must be
// at least 1 and max at least min. The initial width is the
// WithWorkers value (or its default) clamped into the bounds. Without
// this option the pool is fixed at the WithWorkers width and Resize
// is a no-op at that width.
func WithWorkerBounds(min, max int) Option {
	return func(c *sessionConfig) { c.minWorkers, c.maxWorkers, c.hasBounds = min, max, true }
}

// WithCacheSize bounds the shared known-good-die cost cache (entries,
// not bytes). The default is 4096; 0 disables memoization entirely.
func WithCacheSize(n int) Option {
	return func(c *sessionConfig) { c.cacheSize = n; c.hasCacheSz = true }
}

// DefaultCacheSize is the KGD cache bound used when WithCacheSize is
// not given. A sweep touches one cache entry per distinct die shape,
// so 4096 covers even the Figure 10 portfolio workloads many times
// over.
const DefaultCacheSize = 4096

// WithPartialsCacheSize bounds the evaluator's partial-result tables
// (entries each, not bytes): the packaging geometry/yield partials
// shared by the RE and NRE engines, and the uniform-shape table that
// answers a repeated uniform point (every sweep candidate seen before)
// with one probe. The default is DefaultPartialsCacheSize; 0 disables
// both (the KGD cache is bounded separately by WithCacheSize).
func WithPartialsCacheSize(n int) Option {
	return func(c *sessionConfig) { c.partialsSize = n; c.hasPartials = true }
}

// DefaultPartialsCacheSize is the partials-cache bound used when
// WithPartialsCacheSize is not given. A sweep touches one packaging
// partial per distinct (scheme, flow, die count, total area) tuple and
// one shape entry per distinct (node, scheme, flow, count, area)
// tuple, so 8192 holds every partial and shape of the paper's sweep
// workloads at once. Both tables are preallocated at this size and
// hold no pointer: 1.5 MiB for the partials and 1.38 MiB (160 bytes an
// entry) for the shapes.
const DefaultPartialsCacheSize = explore.DefaultPartialsCacheSize

// PartialsStats reports the partial-result caches' counters (see
// Session.PartialsCacheStats).
type PartialsStats = explore.PartialsStats

// Session is the batch evaluation handle: a technology database and
// packaging parameter set, a worker pool width, and a shared die-cost
// cache. Apart from the worker-pool target width — which Resize moves
// within the WithWorkerBounds range — a Session is immutable after
// construction and safe for concurrent use; one Session is meant to
// serve many Evaluate calls.
type Session struct {
	db        *TechDatabase
	params    PackagingParams
	ev        *explore.Evaluator
	workerMin int
	workerMax int
	// workerTarget is the pool width running streams converge to; see
	// Resize. It always sits inside [workerMin, workerMax].
	workerTarget atomic.Int64
	metrics      *sessionMetrics
}

// NewSession builds a Session. With no options it uses the built-in
// technology database, calibrated packaging parameters, one worker
// per CPU, and a DefaultCacheSize-entry KGD cache.
func NewSession(opts ...Option) (*Session, error) {
	cfg := sessionConfig{workers: runtime.GOMAXPROCS(0), cacheSize: DefaultCacheSize,
		partialsSize: DefaultPartialsCacheSize}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.db == nil {
		cfg.db = tech.Default()
	}
	if !cfg.hasParams {
		cfg.params = packaging.DefaultParams()
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if !cfg.hasBounds {
		// A fixed pool is the degenerate elastic one: min = max = width.
		cfg.minWorkers, cfg.maxWorkers = cfg.workers, cfg.workers
	}
	if cfg.minWorkers < 1 || cfg.maxWorkers < cfg.minWorkers {
		return nil, fmt.Errorf("actuary: invalid worker bounds [%d, %d] (want 1 ≤ min ≤ max)",
			cfg.minWorkers, cfg.maxWorkers)
	}
	ev, err := explore.NewEvaluatorWithCaches(cfg.db, cfg.params, cfg.cacheSize, cfg.partialsSize)
	if err != nil {
		return nil, err
	}
	s := &Session{db: cfg.db, params: cfg.params, ev: ev,
		workerMin: cfg.minWorkers, workerMax: cfg.maxWorkers,
		metrics: &sessionMetrics{}}
	s.workerTarget.Store(int64(clampWorkers(cfg.workers, cfg.minWorkers, cfg.maxWorkers)))
	return s, nil
}

// clampWorkers clamps a requested width into [min, max].
func clampWorkers(n, min, max int) int {
	if n < min {
		return min
	}
	if n > max {
		return max
	}
	return n
}

// Workers returns the worker pool's current target width.
func (s *Session) Workers() int { return int(s.workerTarget.Load()) }

// WorkerBounds returns the pool's [min, max] resize range. A fixed
// pool (no WithWorkerBounds) reports min == max.
func (s *Session) WorkerBounds() (min, max int) { return s.workerMin, s.workerMax }

// Resize moves the worker pool's target width to n, clamped into the
// WithWorkerBounds range, and returns the applied value. Running
// streams converge to the new width: growth spawns workers into live
// streams within a few milliseconds; shrink retires workers as they
// finish their current request — no evaluation is abandoned. Safe for
// concurrent use; the last call wins.
func (s *Session) Resize(n int) int {
	n = clampWorkers(n, s.workerMin, s.workerMax)
	s.workerTarget.Store(int64(n))
	return n
}

// Tech returns the session's technology database.
func (s *Session) Tech() *TechDatabase { return s.db }

// Packaging returns the session's packaging parameters.
func (s *Session) Packaging() PackagingParams { return s.params }

// Evaluator exposes the underlying exploration evaluator for advanced
// use (sensitivity studies, custom sweeps).
func (s *Session) Evaluator() *explore.Evaluator { return s.ev }

// CacheStats reports the shared KGD cache's hit/miss counters.
func (s *Session) CacheStats() KGDCacheStats { return s.ev.Cost.CacheStats() }

// PartialsCacheStats reports the partial-result tables' hit/miss
// counters: the packaging geometry/yield partials shared by the RE and
// NRE engines, and in NRE the uniform-shape table. A shape hit answers
// its point whole, so the packaging counters (and CacheStats) count
// only the probes the shape table did not answer. On sweep workloads
// the shape hit rate should sit near 1 — a low rate means the working
// set outgrew WithPartialsCacheSize.
func (s *Session) PartialsCacheStats() PartialsStats { return s.ev.PartialsCacheStats() }

// Evaluate answers a batch of requests, fanning them out over the
// session's worker pool. Results come back in input order — result i
// always answers request i. Failures are isolated per request: a bad
// node or infeasible sweep yields a Result with a structured *Error
// while the rest of the batch proceeds. Canceling ctx stops the
// batch; requests not yet evaluated return ErrCanceled results.
//
// Evaluate is the materialized face of the streaming pipeline: it
// wraps the slice in a RequestSource, drives Session.Stream, and
// reassembles results by index. Callers whose batches are generated
// rather than hand-built should use Stream directly and skip the
// slice.
func (s *Session) Evaluate(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Blocking delivery: this loop drains until the channel closes, so
	// a mid-batch cancel never discards work a worker already finished
	// (the pre-streaming Evaluate kept every computed result, and
	// callers rely on that for partial batches).
	ch, err := s.Stream(ctx, SliceSource(reqs), streamWorkerCap(len(reqs)), streamDeliverAll())
	if err != nil { // unreachable: the source is never nil
		for i := range reqs {
			results[i] = s.fail(i, reqs[i], err)
		}
		return results
	}
	delivered := make([]bool, len(reqs))
	for r := range ch {
		results[r.Index] = r
		delivered[r.Index] = true
	}
	// A canceled stream abandons undelivered requests; restore the
	// per-request contract with explicit ErrCanceled results.
	for i, ok := range delivered {
		if !ok {
			cause := ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			results[i] = s.fail(i, reqs[i], cause)
		}
	}
	return results
}

// fail builds the structured-error Result for request i.
func (s *Session) fail(i int, req Request, err error) Result {
	return Result{Index: i, ID: req.ID, Question: req.Question, Err: &Error{
		Code:     classify(err),
		Index:    i,
		ID:       req.ID,
		Question: req.Question,
		Err:      err,
	}}
}

// evaluateOne answers a single request synchronously. The context is
// consulted only by long-running per-request sweeps (QuestionSweepBest
// checks it periodically); scheduling-level cancellation lives in
// Stream.
func (s *Session) evaluateOne(ctx context.Context, i int, req Request) Result {
	res := Result{Index: i, ID: req.ID, Question: req.Question}
	if req.Question != QuestionSweepBest && req.Question != QuestionSearchBest &&
		(req.ShardIndex != 0 || req.ShardCount != 0) {
		return s.fail(i, req, fmt.Errorf("actuary: question %v does not accept a shard spec", req.Question))
	}
	switch req.Question {
	case QuestionTotalCost:
		tc, err := s.ev.Single(req.System, req.Policy)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.TotalCost = &tc

	case QuestionRE:
		re, err := s.ev.Cost.RE(req.System)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.RE = &re

	case QuestionWafers:
		quantity := req.Quantity
		if quantity == 0 {
			quantity = req.System.Quantity
		}
		wd, err := s.ev.Cost.Wafers(req.System, quantity)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.Wafers = &wd

	case QuestionCrossoverQuantity:
		q, err := s.ev.CrossoverQuantity(req.Incumbent, req.Challenger)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.Quantity = q

	case QuestionOptimalChipletCount:
		points, best, err := s.ev.OptimalChipletCount(req.Node, req.ModuleAreaMM2,
			req.MaxK, req.Scheme, req.D2D, req.Quantity)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.Points, res.Best = points, best

	case QuestionAreaCrossover:
		area, err := s.ev.AreaCrossover(req.Node, req.K, req.Scheme, req.D2D,
			req.LoMM2, req.HiMM2)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.AreaMM2 = area

	case QuestionSweepBest:
		best, err := s.sweepBest(ctx, req)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.SweepBest = best

	case QuestionSearchBest:
		best, err := s.searchBest(ctx, req)
		if err != nil {
			return s.fail(i, req, err)
		}
		res.SearchBest = best

	default:
		return s.fail(i, req, fmt.Errorf("actuary: unknown question %v", req.Question))
	}
	return res
}

// sweepBest streams a request's grid through the online aggregators:
// lazy generation with reticle and interposer pruning, one total-cost
// evaluation per surviving point, O(TopK + front) retained state. A
// shard spec restricts the walk to one stripe of the candidate space;
// shard answers merge back into the unsharded answer (SweepBestMerger).
func (s *Session) sweepBest(ctx context.Context, req Request) (*SweepBest, error) {
	return s.sweepBestWalk(ctx, req, nil, 0, nil)
}

// SweepBestCheckpointed answers one sweep-best request exactly like
// Evaluate would, but makes the walk durable: every `every` grid
// candidates it snapshots the generator cursor and the aggregator
// state into a SweepCheckpoint and hands it to save (persist it with
// SaveCheckpointFile, ship it over a wire — the snapshot does not
// alias walk state). A run killed at any point — even SIGKILL — can
// be restarted with the last saved checkpoint as resume, skips
// straight to its cursor without re-evaluating a single point, and
// returns a SweepBest byte-identical to an uninterrupted run's.
//
// resume nil starts fresh. A resume checkpoint must carry the
// fingerprint of this request (SweepFingerprint): resuming a
// different grid, top-K bound, policy or shard spec is rejected with
// an error wrapping ErrCheckpointMismatch (errors.Is-detectable)
// rather than silently mixing two workloads. A save error aborts the
// walk — a run that cannot persist progress should fail loudly, not
// complete with a stale checkpoint behind it.
//
// Snapshots are taken between candidates, so `every` trades replay
// work against checkpoint I/O; values below 1 are raised to 1. The
// returned error taxonomy matches Evaluate's (the structured *Error
// wrapper is applied by Evaluate, not here).
func (s *Session) SweepBestCheckpointed(ctx context.Context, req Request, resume *SweepCheckpoint, every int, save func(*SweepCheckpoint) error) (*SweepBest, error) {
	if req.Question == 0 {
		req.Question = QuestionSweepBest
	}
	if req.Question != QuestionSweepBest {
		return nil, fmt.Errorf("actuary: SweepBestCheckpointed wants a sweep-best request, not %v", req.Question)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.sweepBestWalk(ctx, req, resume, every, save)
}

// sweepBestWalk is the one implementation behind sweepBest and
// SweepBestCheckpointed: the plain path passes a nil resume and save.
func (s *Session) sweepBestWalk(ctx context.Context, req Request, resume *SweepCheckpoint, every int, save func(*SweepCheckpoint) error) (*SweepBest, error) {
	if req.Grid == nil {
		return nil, fmt.Errorf("actuary: sweep-best request needs a Grid")
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := validShardSpec(req.ShardIndex, req.ShardCount); err != nil {
		return nil, err
	}
	if every < 1 {
		every = 1
	}
	k := req.TopK
	if k < 1 {
		k = 1
	}
	// The ranking definitions are shared with SweepBestMerger (see
	// merge.go): shards and the merge must rank under one metric.
	top := newSweepTopK(k)
	front := newSweepPareto()
	var summary SweepSummary
	var firstErr error
	firstCand := 0
	infeasible := 0
	// The abort hook fires per candidate, so cancellation lands even
	// inside a long all-pruned stretch of the grid walk.
	gen := req.Grid.Points(sweep.ReticleFit(), sweep.InterposerFit(s.params)).
		AbortWhen(func() bool { return ctx.Err() != nil })
	if req.ShardCount > 0 {
		gen.Shard(req.ShardIndex, req.ShardCount)
	}
	fingerprint := ""
	if resume != nil || save != nil {
		var err error
		if fingerprint, err = SweepFingerprint(req); err != nil {
			return nil, err
		}
	}
	if resume != nil {
		// A checkpoint is only as trustworthy as its provenance: the
		// fingerprint binds it to this exact workload, and the restore
		// path re-validates every piece of state it adopts.
		if resume.Fingerprint != fingerprint {
			return nil, fmt.Errorf("actuary: %w: checkpoint fingerprint %.12s does not match sweep grid %q (%.12s)",
				ErrCheckpointMismatch, resume.Fingerprint, req.Grid.Name, fingerprint)
		}
		if resume.Infeasible < 0 || resume.FirstFailureCandidate < 0 || resume.Summary.Count < 0 {
			return nil, fmt.Errorf("actuary: %w: checkpoint carries negative counters (%d infeasible, candidate %d, %d summarized)",
				ErrCheckpointMismatch, resume.Infeasible, resume.FirstFailureCandidate, resume.Summary.Count)
		}
		if _, err := gen.Restore(resume.Cursor); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		// Every feasible point fed all three aggregators, so the
		// observation counters are one number: the summary count.
		if err := top.SetState(sweep.TopKState[SweepPoint]{K: k, Seen: resume.Summary.Count, Items: resume.Top}); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		if err := front.SetState(sweep.ParetoState[SweepPoint]{Seen: resume.Summary.Count, Front: resume.Pareto}); err != nil {
			return nil, fmt.Errorf("actuary: %w: %w", ErrCheckpointMismatch, err)
		}
		summary = resume.Summary
		infeasible = resume.Infeasible
		firstErr = resume.FirstFailure
		firstCand = resume.FirstFailureCandidate
	}
	lastSaved := gen.Cursor().Candidate
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		tc, err := s.ev.Single(p.System, req.Policy)
		if err != nil {
			infeasible++
			if firstErr == nil {
				firstErr = err
				firstCand = gen.LastCandidate()
			}
		} else {
			sp := SweepPoint{ID: p.ID, Node: p.Node, Scheme: p.Scheme,
				AreaMM2: p.AreaMM2, K: p.K, Quantity: p.Quantity, Total: tc}
			top.Observe(sp)
			front.Observe(sp)
			summary.Observe(sp.ID, tc.Total())
		}
		if cur := gen.Cursor(); save != nil && cur.Candidate-lastSaved >= every {
			cp := &SweepCheckpoint{
				Fingerprint:           fingerprint,
				Cursor:                cur,
				Top:                   top.Sorted(),
				Pareto:                front.Front(),
				Summary:               summary,
				Infeasible:            infeasible,
				FirstFailure:          firstErr,
				FirstFailureCandidate: firstCand,
			}
			if err := save(cp); err != nil {
				return nil, fmt.Errorf("actuary: saving sweep checkpoint: %w", err)
			}
			lastSaved = cur.Candidate
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if summary.Count == 0 && req.ShardCount == 0 {
		// Unsharded: an empty answer means the whole grid is infeasible.
		// A shard, in contrast, may legitimately own zero feasible
		// candidates — it returns an empty SweepBest and the merge layer
		// decides whether the grid as a whole came up empty.
		err := fmt.Errorf("actuary: %w: no feasible point in sweep grid %q (%d pruned, %d infeasible)",
			explore.ErrInfeasible, req.Grid.Name, gen.Stats().Pruned, infeasible)
		if firstErr != nil {
			// Keep the first per-point cause in the chain so the error
			// taxonomy survives: a typo'd node classifies ErrUnknownNode
			// (classify checks it before ErrInfeasible), not infeasible.
			err = fmt.Errorf("%w; first failure: %w", err, firstErr)
		}
		return nil, err
	}
	return &SweepBest{
		Top:                   top.Sorted(),
		Pareto:                front.Front(),
		Summary:               summary,
		Pruned:                gen.Stats().Pruned,
		Deduped:               gen.Stats().Deduped,
		Infeasible:            infeasible,
		FirstFailure:          firstErr,
		FirstFailureCandidate: firstCand,
	}, nil
}

// validShardSpec checks a wire shard spec: ShardCount 0 (with index 0)
// means unsharded; otherwise the index must name one of the ShardCount
// stripes.
func validShardSpec(index, count int) error {
	if count == 0 && index == 0 {
		return nil
	}
	if count < 1 || index < 0 || index >= count {
		return fmt.Errorf("actuary: invalid shard spec %d of %d (want 0 ≤ index < count)", index, count)
	}
	return nil
}

// Portfolio evaluates a family of systems that share module, chip and
// package designs (§3.3), keyed by system name. Portfolios are
// inherently cross-system — every member's NRE share depends on every
// other member — so they ride beside the per-request batch API rather
// than inside it.
func (s *Session) Portfolio(systems []System, policy AmortizationPolicy) (map[string]TotalCost, error) {
	return s.ev.Portfolio(systems, policy)
}
