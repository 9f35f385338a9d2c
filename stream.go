package actuary

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"chipletactuary/internal/sweep"
)

// Streaming design-space exploration: instead of materializing a sweep
// into a []Request and batching it through Evaluate, a lazy
// RequestSource feeds Session.Stream, which fans requests over the
// worker pool with a bounded number in flight and emits Results as
// they complete. Online aggregators (CostTopK, CostPareto,
// StreamStats) reduce the stream in O(K) memory, so sweep size no
// longer bounds what a session can serve.

// Types of the generation layer (see internal/sweep), re-exported so
// callers can build lazy sweeps without importing internal packages.
type (
	// SweepGrid declares the axes of a design-space sweep
	// (node × scheme × area × chiplet count × quantity).
	SweepGrid = sweep.Grid
	// DesignPoint is one lazily generated point of a SweepGrid.
	DesignPoint = sweep.Point
	// SweepGenerator lazily walks a SweepGrid's cross product.
	SweepGenerator = sweep.Generator
	// SweepFilter prunes candidate points before any cost math runs.
	SweepFilter = sweep.Filter
	// SweepSummary is the O(1) min/max/count reduction of a sweep.
	SweepSummary = sweep.Summary
)

// Pre-evaluation pruning filters and axis-range helpers, re-exported
// from the generation layer.
var (
	// SweepReticleFit drops design points whose dies exceed the
	// lithographic reticle.
	SweepReticleFit = sweep.ReticleFit
	// SweepInterposerFit drops points whose estimated interposer
	// exceeds the manufacturable limit of the given parameters.
	SweepInterposerFit = sweep.InterposerFit
	// SweepAreaRange and SweepCountRange expand inclusive ranges into
	// explicit grid axes.
	SweepAreaRange  = sweep.AreaRange
	SweepCountRange = sweep.CountRange
)

// RequestSource is a pull iterator over requests: Next returns the
// next request until the second return is false. Sources are consumed
// by a single goroutine (Session.Stream's pump), so implementations
// need not be safe for concurrent use.
type RequestSource interface {
	Next() (Request, bool)
}

// SlabSource is a RequestSource that can also hand out runs of
// consecutive requests in one call. Session.Stream detects it and
// fills each worker job with a whole slab, so channel sends, queue
// metrics and scheduling are paid once per slab instead of once per
// point. NextSlab fills dst with up to len(dst)
// requests and returns how many it produced; 0 means exhausted. The
// concatenation of the slabs must be exactly the sequence Next would
// have produced, so slab and point consumers see identical request
// streams (resume cursors and result indexes stay per-request either
// way). Sources that cannot produce runs cheaply just implement
// RequestSource and are served slabs of one (see fillSlab).
type SlabSource interface {
	RequestSource
	NextSlab(dst []Request) int
}

// fillSlab fills dst by calling src.Next until dst is full or src is
// exhausted and returns how many requests it produced. It is the
// slab-of-one adapter through which Session.Stream serves sources
// without NextSlab (and every source under StreamSlabSize(1)).
func fillSlab(src RequestSource, dst []Request) int {
	n := 0
	for n < len(dst) {
		r, ok := src.Next()
		if !ok {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

// sourceFunc adapts a closure to a RequestSource.
type sourceFunc func() (Request, bool)

func (f sourceFunc) Next() (Request, bool) { return f() }

// sliceSource streams a materialized batch.
type sliceSource struct {
	reqs []Request
	i    int
}

func (s *sliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// NextSlab implements SlabSource: a materialized batch is one long run.
func (s *sliceSource) NextSlab(dst []Request) int {
	n := copy(dst, s.reqs[s.i:])
	s.i += n
	return n
}

// SliceSource adapts an explicit batch to the streaming API.
func SliceSource(reqs []Request) RequestSource { return &sliceSource{reqs: reqs} }

// SweepSource adapts a lazy design-point generator into a request
// source asking one per-system question (QuestionTotalCost, QuestionRE
// or QuestionWafers) of every generated point. Request IDs follow the
// scenario convention "<point>/<question>". The generator's grid is
// validated here: a misconfigured axis fails fast instead of
// degenerating into an empty stream. A lean generator (see
// SweepGenerator.Lean) is rejected: its points carry no System to
// evaluate.
func SweepSource(gen *SweepGenerator, question Question, policy AmortizationPolicy) (RequestSource, error) {
	if !perSystemQuestion(question) {
		return nil, fmt.Errorf("actuary: SweepSource supports the per-system questions, not %v", question)
	}
	if gen.IsLean() {
		return nil, fmt.Errorf("actuary: SweepSource needs a materializing generator; grid %q's is lean", gen.Grid().Name)
	}
	if err := gen.Grid().Validate(); err != nil {
		return nil, err
	}
	return &sweepSource{
		gen:      gen,
		suffix:   "/" + question.String(),
		question: question,
		policy:   policy,
	}, nil
}

// sweepSource adapts a generator to the streaming API. It implements
// SlabSource, so Session.Stream serves sweeps in slabs; the question
// suffix is rendered once here instead of once per point.
type sweepSource struct {
	gen      *SweepGenerator
	suffix   string
	question Question
	policy   AmortizationPolicy
	points   []DesignPoint // slab scratch, reused across NextSlab calls
}

func (s *sweepSource) request(p DesignPoint) Request {
	return Request{
		ID:       p.ID + s.suffix,
		Question: s.question,
		System:   p.System,
		Policy:   s.policy,
	}
}

func (s *sweepSource) Next() (Request, bool) {
	p, ok := s.gen.Next()
	if !ok {
		return Request{}, false
	}
	return s.request(p), true
}

// NextSlab implements SlabSource by pulling one generator slab — an
// innermost-axis run of the grid walk, which is what keeps the
// evaluator's partial caches hot within a worker job.
func (s *sweepSource) NextSlab(dst []Request) int {
	if cap(s.points) < len(dst) {
		s.points = make([]DesignPoint, len(dst))
	}
	pts := s.points[:len(dst)]
	n := s.gen.NextSlab(pts)
	for i := 0; i < n; i++ {
		dst[i] = s.request(pts[i])
		// Drop the scratch's hold on the point's System: its
		// placements and modules share chunks with its neighbours',
		// which should stay alive only while the generator or a
		// request still uses them.
		pts[i] = DesignPoint{}
	}
	return n
}

// StreamOption tunes Session.Stream.
type StreamOption func(*streamConfig)

type streamConfig struct {
	inFlight    int
	hasInFlight bool
	maxWorkers  int
	deliverAll  bool
	resumeAt    int
	ordered     bool
	slabSize    int
}

// streamWorkerCap bounds how many workers the stream spawns — used by
// Evaluate so a two-request batch does not pay for a full pool.
func streamWorkerCap(n int) StreamOption {
	return func(c *streamConfig) { c.maxWorkers = n }
}

// streamDeliverAll makes workers deliver every computed result with a
// blocking send, never dropping one on cancellation. Only safe when
// the consumer is guaranteed to drain the channel until it closes —
// Evaluate does; an abandoning consumer would leak the workers.
func streamDeliverAll() StreamOption {
	return func(c *streamConfig) { c.deliverAll = true }
}

// StreamInFlight bounds how many requests may be pulled from the
// source ahead of the consumer (the job queue and result buffer each
// hold this many). The default is twice the session's worker count;
// values below 1 are raised to 1. Together with the worker count this
// caps the stream's memory: at most inFlight queued + workers running
// + inFlight buffered results exist at any moment, independent of
// sweep size.
func StreamInFlight(n int) StreamOption {
	return func(c *streamConfig) { c.inFlight = n; c.hasInFlight = true }
}

// DefaultSlabSize is how many requests ride in one worker job when the
// source supports slab dispatch (see SlabSource) and StreamSlabSize is
// not given. Sized so dispatch overhead amortizes to noise while a
// slab still regenerates in microseconds on resume.
const DefaultSlabSize = 32

// StreamSlabSize sets how many requests one worker job carries when
// the source supports slab dispatch; n ≤ 1 forces slabs of one, pulled
// through Next, even for slab-capable sources (the lever equivalence
// tests use to compare the two paths). Slabs only batch dispatch: results,
// indexes and resume cursors stay per-request, so checkpoints taken
// under one slab size resume correctly under any other. Sources that
// do not implement SlabSource are unaffected.
func StreamSlabSize(n int) StreamOption {
	return func(c *streamConfig) {
		if n < 1 {
			n = 1
		}
		c.slabSize = n
	}
}

// StreamResumeAt resumes an interrupted stream: the first n requests
// of the source are pulled and discarded without evaluation, and the
// survivors are numbered from n — so Result.Index means the same
// stream position it meant before the interruption. Skipping replays
// only generation (a sweep point costs ~100 ns to regenerate against
// the ~10 µs its evaluation took), which is what makes "skip to the
// cursor" cheap however deep into the sweep the checkpoint was taken.
// Values below 1 mean a fresh stream. Sources are deterministic
// (grids walk in odometer order, scenarios compile stage by stage),
// so request n of the resumed stream is exactly request n of the
// original one.
func StreamResumeAt(n int) StreamOption {
	return func(c *streamConfig) { c.resumeAt = n }
}

// StreamOrdered makes the stream emit results in source-index order
// instead of completion order — the delivery mode resumable streams
// need, because "the first n results" must mean "the first n
// requests" for a resume point to be meaningful across processes.
//
// Ordering inside the stream keeps memory bounded even when request
// costs are wildly skewed: dispatch is credit-limited to a window of
// in-flight + workers indexes beyond the contiguous emission
// watermark, so a single slow request (a sweep-best at index 0 ahead
// of a thousand cheap per-point requests, say) stalls generation
// rather than ballooning a reorder buffer. The abandonment contract
// is unchanged: consume until close, or cancel ctx.
func StreamOrdered() StreamOption {
	return func(c *streamConfig) { c.ordered = true }
}

// StreamSpec is the declarative form of the Stream tuning options —
// one struct that server handlers, the client's Local backend and the
// fleet stream coordinator all share, so the three call sites build
// identical option lists instead of drifting. The zero value means
// "session defaults, fresh unordered stream"; convert with Options.
type StreamSpec struct {
	// InFlight bounds how many requests may be pulled ahead of the
	// consumer; 0 keeps the session default (see StreamInFlight).
	InFlight int
	// SlabSize sets how many requests ride in one worker job for
	// slab-capable sources; 0 keeps DefaultSlabSize (see
	// StreamSlabSize).
	SlabSize int
	// ResumeAt skips the first n requests without evaluation and
	// numbers the survivors from n (see StreamResumeAt). A resumed
	// stream is almost always also Ordered — an unordered resume
	// cannot promise "the first n results were the first n requests".
	ResumeAt int
	// Ordered delivers results in source-index order (see
	// StreamOrdered).
	Ordered bool
}

// Options converts the spec to the option list Session.Stream takes.
// Zero-valued fields contribute nothing, so the session defaults
// apply exactly as if the option had not been given.
func (sp StreamSpec) Options() []StreamOption {
	var opts []StreamOption
	if sp.InFlight > 0 {
		opts = append(opts, StreamInFlight(sp.InFlight))
	}
	if sp.SlabSize > 0 {
		opts = append(opts, StreamSlabSize(sp.SlabSize))
	}
	if sp.ResumeAt > 0 {
		opts = append(opts, StreamResumeAt(sp.ResumeAt))
	}
	if sp.Ordered {
		opts = append(opts, StreamOrdered())
	}
	return opts
}

// streamJob carries a slab of requests whose stream indexes are
// index, index+1, … — one channel send for the lot. buf is the pool
// token the worker returns after evaluation.
type streamJob struct {
	index int
	slab  []Request
	buf   *[]Request
}

// slabBufPool recycles slab backing arrays between pump and workers so
// steady-state slab dispatch allocates nothing per slab. Buffers are
// sized per stream (capacity = the stream's slab size); a stream with
// a different slab size simply reallocates on first Get.
var slabBufPool = sync.Pool{New: func() any { return new([]Request) }}

// Stream pulls requests lazily from src, fans them over the session's
// worker pool, and emits Results on the returned channel as they
// complete (not in generation order — correlate by Result.Index or
// ID). The channel closes when the source is exhausted and all results
// are delivered. Generation is demand-driven: no more than the
// in-flight bound (see StreamInFlight) is ever pulled ahead, so an
// arbitrarily large sweep runs in bounded memory.
//
// Canceling ctx stops generation; requests already dequeued drain with
// ErrCanceled results on a best-effort basis. The caller must either
// consume the channel until it closes or cancel ctx — abandoning the
// channel with a live context leaks the stream's workers.
func (s *Session) Stream(ctx context.Context, src RequestSource, opts ...StreamOption) (<-chan Result, error) {
	if src == nil {
		return nil, fmt.Errorf("actuary: Stream needs a request source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := streamConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	// Every job is a slab. Sources that can produce runs fill theirs
	// with NextSlab unless the caller forced slabs of one; every other
	// stream is served slabs of one through fillSlab. The slab size
	// never exceeds the in-flight bound: that bound is the stream's
	// memory contract.
	slab := cfg.slabSize
	if slab == 0 {
		slab = DefaultSlabSize
	}
	nextSlab := func(dst []Request) int { return fillSlab(src, dst) }
	if slabSrc, ok := src.(SlabSource); ok && slab > 1 {
		nextSlab = slabSrc.NextSlab
	} else {
		slab = 1
	}
	if !cfg.hasInFlight {
		cfg.inFlight = 2 * s.Workers()
		if cfg.inFlight < slab {
			// A default window narrower than one slab would force
			// fragmented slabs; widen to one slab's worth.
			cfg.inFlight = slab
		}
	}
	if cfg.inFlight < 1 {
		cfg.inFlight = 1
	}
	if slab > cfg.inFlight {
		slab = cfg.inFlight
	}
	workers := s.Workers()
	if cfg.maxWorkers > 0 && cfg.maxWorkers < workers {
		workers = cfg.maxWorkers
	}
	// The job queue is measured in requests, not sends: with slabs of
	// size s it holds inFlight/s jobs, so the in-flight request bound
	// is the same whatever the slab size.
	jobs := make(chan streamJob, max(1, cfg.inFlight/slab))
	out := make(chan Result, cfg.inFlight)
	metrics := s.metrics
	metrics.streamsStarted.Add(1)

	// Ordered delivery: a credit per dispatchable index, released as
	// results are emitted in order. The window (queue + workers) is
	// exactly the dispatch-ahead an unordered stream has anyway, so
	// ordering changes delivery, not throughput — but it caps the
	// reorder buffer at the window however skewed request costs are.
	var credits chan struct{}
	if cfg.ordered {
		credits = make(chan struct{}, cfg.inFlight+workers)
		for i := 0; i < cap(credits); i++ {
			credits <- struct{}{}
		}
	}

	// Pump: the only goroutine touching the source. It blocks when the
	// job queue is full, which is what keeps generation lazy. Each
	// enqueue records a queue-depth sample — the back-pressure signal
	// Session.Metrics surfaces. The gauge is raised before the send so
	// a worker's decrement can never observe it un-incremented (the
	// depth gauge must not go negative); an abandoned send rolls it
	// back.
	// acquireCredits pulls n dispatch credits (no-op when unordered);
	// false means the context died first. returnCredits hands back the
	// unused credits of a short final slab.
	acquireCredits := func(n int) bool {
		if credits == nil {
			return true
		}
		for c := 0; c < n; c++ {
			select {
			case <-credits:
			case <-ctx.Done():
				return false
			}
		}
		return true
	}
	returnCredits := func(n int) {
		if credits == nil {
			return
		}
		for c := 0; c < n; c++ {
			select {
			case credits <- struct{}{}:
			default:
			}
		}
	}
	go func() {
		defer close(jobs)
		pprof.Do(ctx, pprof.Labels("stage", "pump"), func(ctx context.Context) {
			// Resume: drain the already-delivered prefix without dispatching
			// or touching the queue metrics — replayed generation is not
			// back-pressure. Cancellation still lands between pulls.
			for i := 0; i < cfg.resumeAt; i++ {
				if ctx.Err() != nil {
					return
				}
				if _, ok := src.Next(); !ok {
					return
				}
			}
			// Credits stay request-granular (the ordered window is
			// measured in requests), acquired in a batch before the slab
			// is generated. cap(credits) ≥ slab always holds, so the batch
			// can never deadlock; the unused credits of a short final slab
			// go straight back.
			for i := max(cfg.resumeAt, 0); ; {
				if !acquireCredits(slab) {
					return
				}
				buf := slabBufPool.Get().(*[]Request)
				if cap(*buf) < slab {
					*buf = make([]Request, slab)
				}
				n := nextSlab((*buf)[:slab])
				if n == 0 {
					slabBufPool.Put(buf)
					returnCredits(slab)
					return
				}
				returnCredits(slab - n)
				metrics.enqueued(n)
				select {
				case jobs <- streamJob{index: i, slab: (*buf)[:n], buf: buf}:
				case <-ctx.Done():
					metrics.enqueueAborted(n)
					slabBufPool.Put(buf)
					return
				}
				i += n
			}
		})
	}()

	var wg sync.WaitGroup
	worker := func() {
		start := time.Now()
		metrics.workerStarted(start)
		defer func() {
			metrics.workerStopped(start)
			wg.Done()
		}()
		deliver := func(r Result) {
			if cfg.deliverAll {
				out <- r // consumer drains until close, never blocks forever
				return
			}
			select {
			case out <- r:
			case <-ctx.Done():
				// The consumer may have stopped reading; deliver if
				// there is room, otherwise drop — Evaluate restores
				// per-request ErrCanceled results for the gaps.
				select {
				case out <- r:
				default:
				}
			}
		}
		pprof.Do(ctx, pprof.Labels("stage", "evaluate"), func(ctx context.Context) {
			for j := range jobs {
				metrics.dequeued(len(j.slab))
				for k, req := range j.slab {
					t0 := time.Now()
					var r Result
					if err := ctx.Err(); err != nil {
						r = s.fail(j.index+k, req, err)
					} else {
						r = s.evaluateOne(ctx, j.index+k, req)
					}
					metrics.finished(req.Question, time.Since(t0), r.Err != nil)
					deliver(r)
				}
				clear(j.slab) // release the request payload references
				slabBufPool.Put(j.buf)
			}
		})
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	go func() {
		wg.Wait()
		metrics.streamsCompleted.Add(1)
		close(out)
	}()
	if !cfg.ordered {
		return out, nil
	}
	// The reorder stage sits between the workers and the consumer; its
	// buffer cannot exceed the credit window, so the head result is
	// always reachable by draining `out` eagerly — no deadlock, no
	// unbounded pending map. Credits return to the pump in one batched
	// grant per drain burst: under slow-head skew the head's completion
	// releases a whole window of emissions, and granting them together
	// wakes the pump once instead of once per point.
	ordered := make(chan Result, cfg.inFlight)
	go func() {
		pprof.Do(ctx, pprof.Labels("stage", "deliver"), func(ctx context.Context) {
			reorderResults(ctx, out, ordered, max(cfg.resumeAt, 0), cap(credits), func(n int) {
				for i := 0; i < n; i++ {
					select {
					case credits <- struct{}{}:
					default: // gaps after cancellation may over-return; drop
					}
				}
			})
		})
	}()
	return ordered, nil
}

// reorderResults is the one reorder loop behind StreamOrdered and
// OrderedResults: it pumps a completion-order channel into out in
// index order starting at next, closing out when done. onEmit (may be
// nil) runs once per drain burst with the number of in-order emissions
// the burst produced — StreamOrdered returns that many dispatch
// credits in one grant. Results with indexes below next pass through
// immediately; a duplicate index can therefore never wedge the
// watermark. When in closes with a gap outstanding (an interrupted
// stream), the results beyond the gap flush in ascending order so no
// computed result is silently dropped. A canceled ctx releases the
// goroutine even if the consumer stopped reading, after draining in
// as the stream contract requires.
//
// window > 0 promises the producer never runs more than window indexes
// past the contiguous watermark (StreamOrdered's credit bound); the
// buffer is then a preallocated ring indexed by Index mod window and
// the hot loop allocates nothing per result. window ≤ 0 (or a producer
// that breaks the promise, which StreamOrdered's cannot) falls back to
// a map — OrderedResults wraps producers it does not own and cannot
// bound, so it always takes the map.
func reorderResults(ctx context.Context, in <-chan Result, out chan<- Result, next, window int, onEmit func(int)) {
	defer close(out)
	var ring []Result
	var occupied []bool
	held := 0 // occupied ring slots
	if window > 0 {
		ring = make([]Result, window)
		occupied = make([]bool, window)
	}
	var pending map[int]Result // overflow and window-less fallback, lazy
	store := func(r Result) {
		if window > 0 && r.Index < next+window {
			slot := r.Index % window
			if !occupied[slot] {
				occupied[slot] = true
				held++
			}
			ring[slot] = r
			return
		}
		if pending == nil {
			pending = make(map[int]Result)
		}
		pending[r.Index] = r
	}
	take := func(i int) (Result, bool) {
		if window > 0 {
			slot := i % window
			if occupied[slot] && ring[slot].Index == i {
				r := ring[slot]
				occupied[slot] = false
				ring[slot] = Result{}
				held--
				return r, true
			}
		}
		r, ok := pending[i]
		if ok {
			delete(pending, i)
		}
		return r, ok
	}
	send := func(r Result) bool {
		select {
		case out <- r:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for r := range in {
		if r.Index < next {
			if !send(r) {
				break
			}
			continue
		}
		store(r)
		delivered := true
		emitted := 0
		for delivered {
			head, ok := take(next)
			if !ok {
				break
			}
			delivered = send(head)
			next++
			emitted++
		}
		if emitted > 0 && onEmit != nil {
			onEmit(emitted)
		}
		if !delivered {
			break
		}
	}
	// Drain whatever the producer still delivers (its contract requires
	// a drain after cancellation), then flush any post-gap stragglers
	// in ascending order.
	for range in {
	}
	if held > 0 || len(pending) > 0 {
		rest := make([]int, 0, held+len(pending))
		for slot, occ := range occupied {
			if occ {
				rest = append(rest, ring[slot].Index)
			}
		}
		for i := range pending {
			rest = append(rest, i)
		}
		sort.Ints(rest)
		for _, i := range rest {
			r, _ := take(i)
			if !send(r) {
				return
			}
		}
	}
}

// StreamAggregator is an online consumer of results; see Reduce.
type StreamAggregator interface {
	Observe(Result)
}

// Reduce drains a result stream through the given aggregators and
// reports how many results were seen. It returns when the channel
// closes (or, with a canceled context, once the stream drains its
// in-flight work).
//
// Compose the stream so each design point reaches the aggregators
// once: a scenario asking both a per-point cost question and
// sweep-best over the same grid delivers its winners twice (once as
// per-point results, once unpacked from the SweepBest payload), and a
// sweep-best answer contributes only the TopK points it retained — so
// drop the redundant question (as cmd/actuary does under -top/-pareto)
// and size Request.TopK at least as large as any downstream CostTopK.
func Reduce(ch <-chan Result, aggs ...StreamAggregator) int {
	n := 0
	for r := range ch {
		n++
		for _, a := range aggs {
			a.Observe(r)
		}
	}
	return n
}

// OrderedResults reorders an arbitrary completion-order result
// channel into source-index order, starting at next: result n is
// emitted only once every result below n has been. Results with
// indexes below next (client-side transport errors carry -1) pass
// through immediately; when the input closes with a gap outstanding
// (an interrupted stream), the results beyond the gap flush in
// ascending order so no computed result is silently dropped.
//
// The buffer grows with however far the producer runs ahead of the
// contiguous watermark — this helper cannot throttle a producer it
// does not own. For Session streams use the StreamOrdered option
// instead, which credit-limits dispatch so the reorder buffer stays
// bounded even under heavily skewed request costs.
//
// The context keeps the wrapper's abandonment contract identical to
// the stream it wraps: a consumer that cancels ctx and walks away
// (instead of draining to close) releases the reordering goroutine —
// use the same context the stream runs under.
//
// An ordered stream is what makes a stream position meaningful across
// process boundaries: "the first n lines" of an ordered NDJSON
// response is exactly "the first n requests of the scenario", which
// is the contract the /v1/stream resume field and StreamCheckpoint
// are built on.
func OrderedResults(ctx context.Context, ch <-chan Result, next int) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Result)
	go reorderResults(ctx, ch, out, next, 0, nil)
	return out
}

// ReduceCheckpointed drains an index-ordered result stream (a
// Session.Stream opened with StreamOrdered) through the
// checkpoint's aggregators, persisting progress as it goes: after
// every `every` accounted results the live checkpoint is handed to
// save (marshal it — the wire form is a deep snapshot). cp.Next
// advances with each accounted result, so the invariant "everything
// below Next is aggregated, nothing at or above it" holds at every
// save — exactly what a later StreamResumeAt(cp.Next) needs.
//
// Accounting stops — without failing — at the first interruption
// artifact: a gap in the index sequence or an ErrCanceled result,
// both of which exist only because the stream was cut short. The
// remainder of the channel is drained unobserved (the stream contract
// requires it) and the checkpoint stays valid for resumption. The
// return value is the number of results accounted this call; a save
// error aborts immediately.
func ReduceCheckpointed(ch <-chan Result, cp *StreamCheckpoint, every int, save func(*StreamCheckpoint) error) (int, error) {
	if every < 1 {
		every = 1
	}
	aggs := cp.aggregators()
	n := 0
	interrupted := false
	for r := range ch {
		if interrupted {
			continue
		}
		if r.Index != cp.Next || isCanceled(r.Err) {
			interrupted = true
			continue
		}
		for _, a := range aggs {
			a.Observe(r)
		}
		cp.Next++
		n++
		if save != nil && n%every == 0 {
			if err := save(cp); err != nil {
				// Keep draining: the stream contract must hold even when
				// persistence fails.
				for range ch {
				}
				return n, fmt.Errorf("actuary: saving stream checkpoint: %w", err)
			}
		}
	}
	return n, nil
}

// isCanceled reports whether a result error classifies ErrCanceled —
// an interruption artifact, not a workload outcome.
func isCanceled(err error) bool {
	if err == nil {
		return false
	}
	if ae, ok := AsError(err); ok {
		return ae.Code == ErrCanceled
	}
	return false
}

// pointResult lifts one evaluated sweep point into a synthetic
// total-cost Result so per-point and whole-sweep answers aggregate
// uniformly.
func pointResult(base Result, p SweepPoint) Result {
	tc := p.Total
	return Result{Index: base.Index, ID: p.ID, Question: QuestionTotalCost, TotalCost: &tc}
}

// CostTopK keeps the K cheapest successful total-cost results of a
// stream in O(K) memory. SweepBest payloads contribute their top
// points as synthetic total-cost results; other results without a
// TotalCost payload, and failures, are ignored. Feed each design point
// once: a stream carrying both per-point results and a sweep-best
// answer over the same grid would count its winners twice.
type CostTopK struct {
	top *sweep.TopK[Result]
}

// NewCostTopK builds a top-K selector over total cost per unit. Equal
// costs are tie-broken by result ID, so the retained set is
// independent of completion order — and of how the stream was sharded.
func NewCostTopK(k int) *CostTopK {
	return &CostTopK{top: sweep.NewTopK(k, func(r Result) float64 { return r.TotalCost.Total() }).
		TieBreak(func(r Result) string { return r.ID })}
}

// Observe implements StreamAggregator.
func (c *CostTopK) Observe(r Result) {
	if r.Err != nil {
		return
	}
	if r.SweepBest != nil {
		for _, p := range r.SweepBest.Top {
			c.top.Observe(pointResult(r, p))
		}
		return
	}
	if r.TotalCost == nil {
		return
	}
	c.top.Observe(r)
}

// Results returns the retained results, cheapest first.
func (c *CostTopK) Results() []Result { return c.top.Sorted() }

// Seen returns how many total-cost results were considered.
func (c *CostTopK) Seen() int { return c.top.Seen() }

// Merge folds another selector into this one — the reduction of a
// stream that was split across sessions or daemons. Merging the
// per-shard selectors of any partition reproduces the single-stream
// selector exactly.
func (c *CostTopK) Merge(o *CostTopK) { c.top.Merge(o.top) }

// CostPareto maintains the two-objective Pareto front of a stream —
// recurring cost versus amortized NRE per unit, both minimized — in
// O(front) memory. SweepBest payloads contribute their own front as
// synthetic total-cost results; other results without a TotalCost
// payload, and failures, are ignored. As with CostTopK, feed each
// design point once.
type CostPareto struct {
	front *sweep.Pareto[Result]
}

// NewCostPareto builds the RE-vs-NRE front aggregator. Exact
// objective ties are broken by result ID, so the front is independent
// of completion order — and of how the stream was sharded.
func NewCostPareto() *CostPareto {
	return &CostPareto{front: sweep.NewPareto(func(r Result) (float64, float64) {
		return r.TotalCost.RE.Total(), r.TotalCost.NRE.Total()
	}).TieBreak(func(r Result) string { return r.ID })}
}

// Observe implements StreamAggregator.
func (c *CostPareto) Observe(r Result) {
	if r.Err != nil {
		return
	}
	if r.SweepBest != nil {
		for _, p := range r.SweepBest.Pareto {
			c.front.Observe(pointResult(r, p))
		}
		return
	}
	if r.TotalCost == nil {
		return
	}
	c.front.Observe(r)
}

// Front returns the non-dominated results, ascending in RE.
func (c *CostPareto) Front() []Result { return c.front.Front() }

// Merge folds another front into this one — the reduction of a stream
// that was split across sessions or daemons.
func (c *CostPareto) Merge(o *CostPareto) { c.front.Merge(o.front) }

// StreamStats counts stream outcomes and summarizes total cost online.
type StreamStats struct {
	// OK and Failed count successful and failed results. Skipped is
	// the subset of OK that contributes nothing to the Cost summary:
	// answers without cost data. SweepBest results are not Skipped —
	// they carry no TotalCost field but their whole-sweep summary is
	// merged into Cost.
	OK, Failed, Skipped int
	// Cost summarizes the total cost of the OK results that carry cost
	// data (per-point results and merged sweep-best summaries).
	Cost SweepSummary
}

// Observe implements StreamAggregator.
func (s *StreamStats) Observe(r Result) {
	if r.Err != nil {
		s.Failed++
		return
	}
	s.OK++
	if r.SweepBest != nil {
		s.Cost.Merge(r.SweepBest.Summary)
		return
	}
	if r.TotalCost == nil {
		s.Skipped++
		return
	}
	s.Cost.Observe(r.ID, r.TotalCost.Total())
}

// Merge folds another stats aggregator into this one — the outcome
// counters of a stream that was split across sessions or daemons.
func (s *StreamStats) Merge(o StreamStats) {
	s.OK += o.OK
	s.Failed += o.Failed
	s.Skipped += o.Skipped
	s.Cost.Merge(o.Cost)
}
