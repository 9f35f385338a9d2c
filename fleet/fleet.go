package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"chipletactuary"
	"chipletactuary/client"
)

// DefaultOverPartition is the default ratio of shards to backends.
// Over-partitioning is what makes stealing and speculation cheap: a
// dead backend forfeits one small shard, not a full stripe of the
// sweep, and the last in-flight shards are small enough to re-execute
// speculatively.
const DefaultOverPartition = 4

// Event is one scheduling occurrence worth surfacing: a backend
// marked down or up, a shard stolen or speculatively re-executed, a
// duplicate result discarded, a backend joining mid-sweep, a worker
// pool resized. Backend is the member name ("" for run-level events).
type Event struct {
	Backend string
	Kind    string // "mark-down", "mark-up", "join", "steal", "speculate", "duplicate", "resize", "yield"
	Detail  string
}

// BackendStats is one backend's slice of a run's scheduling stats.
type BackendStats struct {
	Name              string
	State             string // monitor verdict at run end; "" without a monitor
	Shards            int    // shards won (result merged)
	Stolen            int    // wins on shards first started elsewhere
	Speculated        int    // speculative executions launched
	Duplicates        int    // finished executions discarded
	TransportFailures int
}

// Stats summarizes the most recent run's scheduling behavior.
type Stats struct {
	Shards       int // total shards in the sweep
	Requeues     int // transport failures that put a shard back in the pool
	Speculations int
	Steals       int
	Duplicates   int
	Backends     []BackendStats // sorted by name
}

// Option configures a Coordinator.
type Option func(*Coordinator) error

// WithShards pins the shard count, overriding over-partitioning.
// Values below 1 restore the default.
func WithShards(n int) Option {
	return func(c *Coordinator) error {
		c.shards = n
		return nil
	}
}

// WithOverPartition sets the shards-per-backend ratio used when
// WithShards does not pin the count. Default DefaultOverPartition.
func WithOverPartition(factor int) Option {
	return func(c *Coordinator) error {
		if factor < 1 {
			return fmt.Errorf("fleet: over-partition factor %d below 1", factor)
		}
		c.factor = factor
		return nil
	}
}

// WithMonitor attaches a health monitor: the scheduler gates work on
// its mark-down verdicts and weights speculation by its scores. The
// caller runs the monitor's probe loop (Monitor.Run). Without a
// monitor every backend is presumed healthy at weight 1.
func WithMonitor(m *Monitor) Option {
	return func(c *Coordinator) error {
		c.monitor = m
		return nil
	}
}

// WithSpeculation turns speculative re-execution of in-flight shards
// on or off. Default on. Off, a shard runs on one backend at a time
// and only a completed failure (not mere slowness) moves it — the
// semantics of cmd/explore -backends.
func WithSpeculation(on bool) Option {
	return func(c *Coordinator) error {
		c.speculate = on
		return nil
	}
}

// WithEvents installs a sink for scheduling events. The callback runs
// on scheduler goroutines; keep it fast.
func WithEvents(f func(Event)) Option {
	return func(c *Coordinator) error {
		c.onEvent = f
		return nil
	}
}

// WithStreamWindow sets the per-shard result buffer of striped
// streams (see StreamCoordinator): how far a shard's stream may run
// ahead of the merge point before its execution blocks. Default
// DefaultStreamWindow.
func WithStreamWindow(n int) Option {
	return func(c *Coordinator) error {
		if n < 1 {
			return fmt.Errorf("fleet: stream window %d below 1", n)
		}
		c.window = n
		return nil
	}
}

// WithStreamTopK sets the top-K bound of the merged aggregators a
// striped stream carries in its FleetStreamCheckpoint. Default
// DefaultStreamTopK.
func WithStreamTopK(k int) Option {
	return func(c *Coordinator) error {
		if k < 1 {
			return fmt.Errorf("fleet: stream top-K bound %d below 1", k)
		}
		c.streamTopK = k
		return nil
	}
}

// Coordinator fans sweep-best questions across a registry of
// backends with health-aware, work-stealing scheduling. Membership is
// read live from the registry: backends added mid-run join the run,
// removed backends stop receiving work. Safe for concurrent use;
// Stats reports on the most recently finished run.
type Coordinator struct {
	reg        *Registry
	monitor    *Monitor
	shards     int
	factor     int
	speculate  bool
	onEvent    func(Event)
	window     int // per-shard stream buffer (striped streams only)
	streamTopK int // merged aggregator bound (striped streams only)

	mu   sync.Mutex
	last Stats
}

// New builds a Coordinator over the registry. The registry may still
// be empty — backends must have joined by the time a sweep starts.
func New(reg *Registry, opts ...Option) (*Coordinator, error) {
	if reg == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a registry")
	}
	c := &Coordinator{
		reg:        reg,
		factor:     DefaultOverPartition,
		speculate:  true,
		window:     DefaultStreamWindow,
		streamTopK: DefaultStreamTopK,
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Stats reports the scheduling stats of the most recently completed
// sweep (successful or failed).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.last
	out.Backends = append([]BackendStats(nil), c.last.Backends...)
	return out
}

func (c *Coordinator) emit(ev Event) {
	if c.onEvent != nil {
		c.onEvent(ev)
	}
}

// SweepBest answers one sweep-best request by fanning its grid across
// the fleet: shard i of n is dispatched as the same request with the
// shard spec stamped on, and the partial answers merge — as shards
// drain — into exactly the answer a single unsharded evaluation would
// produce. The request must carry a Grid, ask QuestionSweepBest (the
// zero Question is promoted), and not carry a shard spec of its own.
//
// A backend that fails a shard on transport is excluded from that
// shard and the shard goes back to the pool; evaluation failures (bad
// grid, unknown node) abort the run. Backends marked down are skipped,
// stragglers are hedged by speculative re-execution (unless
// WithSpeculation(false)), and backends added to the registry mid-run
// are put to work.
func (c *Coordinator) SweepBest(ctx context.Context, req actuary.Request) (*actuary.SweepBest, error) {
	return c.SweepBestCheckpointed(ctx, req, nil, nil)
}

// SweepBestCheckpointed is SweepBest with per-shard durability: every
// shard drain snapshots progress into a CoordinatorCheckpoint handed
// to save (persist it with actuary.SaveCheckpointFile), and resume
// merges a prior run's drained shards up front, re-dispatching only
// the rest — completed work, possibly hours of it spread over many
// hosts, is never re-walked. resume must match this workload's
// fingerprint (SweepFingerprint of the request) and this
// coordinator's shard count; a mismatch is rejected rather than
// silently merging two different sweeps. Save calls are serialized
// and receive a snapshot that does not alias the run's state; a save
// error aborts the run. Speculative duplicates never reach the
// checkpoint — a shard drains exactly once.
func (c *Coordinator) SweepBestCheckpointed(ctx context.Context, req actuary.Request, resume *actuary.CoordinatorCheckpoint, save func(*actuary.CoordinatorCheckpoint) error) (*actuary.SweepBest, error) {
	if req.Question == 0 {
		req.Question = actuary.QuestionSweepBest
	}
	if req.Question != actuary.QuestionSweepBest {
		return nil, fmt.Errorf("fleet: SweepBest wants a sweep-best request, not %v", req.Question)
	}
	if req.Grid == nil {
		return nil, fmt.Errorf("fleet: sweep-best request needs a Grid")
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	if req.ShardIndex != 0 || req.ShardCount != 0 {
		return nil, fmt.Errorf("fleet: request already carries shard %d of %d; the coordinator assigns shards",
			req.ShardIndex, req.ShardCount)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if c.reg.Len() == 0 {
		return nil, fmt.Errorf("fleet: registry has no live backends")
	}

	n := c.shards
	if n < 1 {
		n = c.factor * c.reg.Len()
	}
	fingerprint := ""
	if resume != nil || save != nil {
		var err error
		if fingerprint, err = actuary.SweepFingerprint(req); err != nil {
			return nil, err
		}
	}
	merger := actuary.NewSweepBestMerger(req.TopK)
	drained := make(map[int]*actuary.SweepBest)
	if resume != nil {
		if resume.Fingerprint != fingerprint {
			return nil, fmt.Errorf("fleet: %w: checkpoint fingerprint %.12s does not match sweep grid %q (%.12s)",
				actuary.ErrCheckpointMismatch, resume.Fingerprint, req.Grid.Name, fingerprint)
		}
		if resume.Shards != n {
			return nil, fmt.Errorf("fleet: %w: checkpoint partitioned the sweep into %d shards, this coordinator into %d",
				actuary.ErrCheckpointMismatch, resume.Shards, n)
		}
		if err := resume.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: %w: %w", actuary.ErrCheckpointMismatch, err)
		}
		for _, sr := range resume.Completed {
			drained[sr.Shard] = sr.Best
			merger.Add(sr.Best)
		}
	}
	var mergeMu sync.Mutex
	checkpoint := func() *actuary.CoordinatorCheckpoint {
		cp := &actuary.CoordinatorCheckpoint{Fingerprint: fingerprint, Shards: n}
		shards := make([]int, 0, len(drained))
		for i := range drained {
			shards = append(shards, i)
		}
		sort.Ints(shards)
		for _, i := range shards {
			cp.Completed = append(cp.Completed, actuary.ShardResult{Shard: i, Best: drained[i]})
		}
		return cp
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	sched := newScheduler(runCtx, n, func(i int) bool { _, ok := drained[i]; return ok }, c.reg.liveIDs)
	sched.stop = cancelRun
	sched.speculate = c.speculate
	sched.onEvent = c.onEvent
	if c.monitor != nil {
		sched.healthy = c.monitor.up
		sched.weight = c.monitor.weight
		// Mark-ups and mark-downs re-dispatch parked workers.
		removeListener := c.monitor.addListener(sched.cond.Broadcast)
		defer removeListener()
	}

	var wg sync.WaitGroup
	worker := func(mem *member) {
		defer wg.Done()
		for {
			if mem.removed.Load() {
				return
			}
			t, execCtx, cancel, ok := sched.next(mem.id, mem.name, mem.removed.Load)
			if !ok {
				return
			}
			best, err := evaluateShard(execCtx, mem.backend, req, t.index, n)
			cancel()
			if err == nil {
				if !sched.win(t, mem.id, mem.name) {
					continue // a rival won the race; discard the duplicate
				}
				mergeMu.Lock()
				merger.Add(best)
				drained[t.index] = best
				var saveErr error
				if save != nil {
					saveErr = save(checkpoint())
				}
				mergeMu.Unlock()
				if saveErr != nil {
					sched.fail(fmt.Errorf("fleet: saving coordinator checkpoint: %w", saveErr))
					return
				}
				sched.complete()
				continue
			}
			// An execution canceled because a rival won is an artifact of
			// the race, not a backend failure.
			if sched.taskDone(t) {
				continue
			}
			if retryable(err) {
				sched.requeue(t, mem.id, err)
			} else {
				sched.fail(err)
			}
		}
	}

	// Spawn a worker per live member, then watch the registry: a
	// late-joining backend gets a worker mid-run, a removal triggers an
	// exhaustion recheck and wakes the departing backend's worker.
	started := make(map[int]bool)
	var startMu sync.Mutex
	spawn := func(announce bool) {
		startMu.Lock()
		defer startMu.Unlock()
		for _, mem := range c.reg.live() {
			if started[mem.id] {
				continue
			}
			started[mem.id] = true
			wg.Add(1)
			go worker(mem)
			if announce {
				c.emit(Event{Backend: mem.name, Kind: "join", Detail: "joined mid-sweep"})
			}
		}
	}
	spawn(false)

	updates, unsubscribe := c.reg.subscribe()
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for {
			select {
			case <-stopWatch:
				return
			case <-updates:
				spawn(true)
				sched.recheck()
			}
		}
	}()

	// A canceled caller context must unblock workers parked in next().
	ctxWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			sched.fail(ctx.Err())
		case <-ctxWatch:
		}
	}()

	// await — not the worker WaitGroup — decides when the run is over:
	// workers come and go with registry membership, and a parked worker
	// of a marked-down backend must not hold up a finished sweep.
	sched.await()
	cancelRun()
	close(stopWatch)
	unsubscribe()
	watchWG.Wait()
	wg.Wait()
	close(ctxWatch)

	c.recordStats(sched, n)
	if err := sched.err(); err != nil {
		return nil, err
	}
	return merger.Result(req.Grid.Name)
}

// recordStats folds a finished run's scheduler tallies into the
// coordinator's Stats snapshot.
func (c *Coordinator) recordStats(sched *scheduler, shards int) {
	sched.mu.Lock()
	st := Stats{
		Shards:       shards,
		Requeues:     sched.requeues,
		Speculations: sched.speculations,
		Steals:       sched.steals,
		Duplicates:   sched.duplicates,
	}
	for id, tly := range sched.perBackend {
		bs := BackendStats{
			Name:              c.reg.memberName(id),
			Shards:            tly.shards,
			Stolen:            tly.steals,
			Speculated:        tly.speculations,
			Duplicates:        tly.duplicates,
			TransportFailures: tly.transportFailures,
		}
		if c.monitor != nil {
			bs.State = c.monitor.stateOf(id).String()
		}
		st.Backends = append(st.Backends, bs)
	}
	sched.mu.Unlock()
	sort.Slice(st.Backends, func(i, j int) bool { return st.Backends[i].Name < st.Backends[j].Name })
	c.mu.Lock()
	c.last = st
	c.mu.Unlock()
}

// SweepBestScenario answers the single sweep-best question of a
// scenario by fanning it across the fleet — the scenario-file face of
// SweepBest, used by cmd/explore -backends and -fleet. The scenario
// must compile to exactly one request, a sweep-best (one sweep, the
// "sweep-best" question, no explicit systems).
func (c *Coordinator) SweepBestScenario(ctx context.Context, cfg actuary.ScenarioConfig) (*actuary.SweepBest, error) {
	return c.SweepBestScenarioCheckpointed(ctx, cfg, nil, nil)
}

// SweepBestScenarioCheckpointed is SweepBestScenario with the
// per-shard durability of SweepBestCheckpointed.
func (c *Coordinator) SweepBestScenarioCheckpointed(ctx context.Context, cfg actuary.ScenarioConfig, resume *actuary.CoordinatorCheckpoint, save func(*actuary.CoordinatorCheckpoint) error) (*actuary.SweepBest, error) {
	if cfg.ShardIndex != 0 || cfg.ShardCount != 0 {
		return nil, fmt.Errorf("fleet: scenario already carries shard %d of %d; the coordinator assigns shards",
			cfg.ShardIndex, cfg.ShardCount)
	}
	reqs, err := cfg.Requests()
	if err != nil {
		return nil, err
	}
	if len(reqs) != 1 || reqs[0].Question != actuary.QuestionSweepBest {
		return nil, fmt.Errorf("fleet: scenario %q compiles to %d requests; SweepBestScenario wants exactly one sweep-best",
			cfg.Name, len(reqs))
	}
	return c.SweepBestCheckpointed(ctx, reqs[0], resume, save)
}

// evaluateShard runs one shard of the request on one backend as a
// single-member batch.
func evaluateShard(ctx context.Context, b client.Backend, req actuary.Request, shard, count int) (*actuary.SweepBest, error) {
	sr := req
	sr.ShardIndex, sr.ShardCount = shard, count
	if sr.ID == "" {
		sr.ID = req.Grid.Name + "/" + actuary.QuestionSweepBest.String()
	}
	sr.ID = actuary.ShardID(sr.ID, shard, count)
	results, err := b.Evaluate(ctx, []actuary.Request{sr})
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, transportError(fmt.Errorf("fleet: backend returned %d results for a 1-request batch", len(results)))
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	if results[0].SweepBest == nil {
		return nil, transportError(fmt.Errorf("fleet: backend returned no sweep-best payload for %q", sr.ID))
	}
	return results[0].SweepBest, nil
}

// transportError classifies a malformed backend response as
// ErrTransport so it is retried elsewhere like any other broken
// transport.
func transportError(err error) error {
	return &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1, Err: err}
}

// retryable reports whether another backend might succeed where this
// one failed: transport failures are worth reassigning, evaluation
// failures and cancellations are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if ae, ok := actuary.AsError(err); ok {
		return ae.Code == actuary.ErrTransport
	}
	// An error outside the taxonomy came from the transport layer, not
	// from an evaluator.
	return true
}
