package fleet

import (
	"context"
	"fmt"
	"sync"
)

// speculationCap bounds how many backends may race one shard: the
// original owner plus one speculative rival. More copies buy almost
// nothing (the second-fastest backend nearly always beats the third)
// and burn fleet capacity the tail of the sweep wants back.
const speculationCap = 2

// task is one shard of the sweep as the scheduler tracks it. A task
// is never removed from the scheduler while the run lives: tried and
// running record its full history so work stealing and speculative
// re-execution can reason about who has it and who already dropped
// it.
type task struct {
	index   int
	owner   int // first backend to start it; -1 until started
	tried   map[int]bool
	running map[int]context.CancelFunc
	// yielded marks executions the stream rescue loop canceled to free
	// a worker for the urgent shard (see yieldOne): the cancellation is
	// scheduling, not failure, and the worker consumes the mark instead
	// of requeueing.
	yielded map[int]bool
	done    bool
	lastErr error // most recent transport failure, for exhaustion reports
}

// backendTally is one backend's slice of the run stats, keyed by
// member id and guarded by the scheduler mutex.
type backendTally struct {
	shards            int // shards this backend won
	steals            int // wins on shards another backend started
	speculations      int // speculative executions launched
	duplicates        int // finished executions discarded (a rival won)
	transportFailures int
}

// scheduler hands shards to backend workers: a pending list plus a
// condition variable, with three fleet behaviors on top:
//
//   - health gating: a worker whose backend the monitor marked down
//     parks instead of taking work, and wakes on mark-up;
//   - work stealing: a task is never owned — any eligible backend may
//     take a shard whose executions all failed, and the tried set only
//     excludes backends that already failed it;
//   - speculation: when no un-started shard remains, an idle backend
//     re-executes an in-flight shard. The first finished execution
//     wins (win), rivals are canceled, and late duplicates are
//     discarded — each shard is merged exactly once.
type scheduler struct {
	mu        sync.Mutex
	cond      *sync.Cond
	runCtx    context.Context
	tasks     []*task
	doneCount int
	total     int
	failed    error  // first fatal failure; stops the run
	stop      func() // invoked once when failed is set; cancels in-flight work
	speculate bool
	healthy   func(id int) bool    // nil: every backend is healthy
	weight    func(id int) float64 // nil: uniform weights
	liveIDs   func() []int         // current registry membership
	onEvent   func(Event)          // may be nil
	// urgent is the shard the stream interleaver is blocked on (-1
	// when none): pick serves it before anything else, so the head of
	// the merged stream is never starved by shards that are merely
	// ahead. Sweep runs never set it.
	urgent int

	requeues     int
	speculations int
	steals       int
	duplicates   int
	perBackend   map[int]*backendTally
}

// newScheduler builds the shard set, counting shards a resumed run
// already drained as done from the start.
func newScheduler(runCtx context.Context, total int, drained func(int) bool, liveIDs func() []int) *scheduler {
	s := &scheduler{
		runCtx:     runCtx,
		total:      total,
		liveIDs:    liveIDs,
		perBackend: make(map[int]*backendTally),
		urgent:     -1,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < total; i++ {
		if drained != nil && drained(i) {
			s.doneCount++
			continue
		}
		s.tasks = append(s.tasks, &task{index: i, owner: -1})
	}
	return s
}

func (s *scheduler) tally(b int) *backendTally {
	t := s.perBackend[b]
	if t == nil {
		t = &backendTally{}
		s.perBackend[b] = t
	}
	return t
}

func (s *scheduler) emit(ev Event) {
	if s.onEvent != nil {
		s.onEvent(ev)
	}
}

// next blocks until a shard is available for backend b, every shard is
// done, the run failed, or the backend was removed from the registry.
// The boolean reports whether a task was handed out; the context is
// the execution's own cancelable child of the run context — a rival
// winning the shard cancels it.
func (s *scheduler) next(b int, name string, removed func() bool) (*task, context.Context, context.CancelFunc, bool) {
	s.mu.Lock()
	for {
		if s.failed != nil || s.doneCount == s.total || removed() {
			s.mu.Unlock()
			return nil, nil, nil, false
		}
		if s.healthy == nil || s.healthy(b) {
			pick, speculative := s.pick(b)
			if pick != nil {
				execCtx, cancel := context.WithCancel(s.runCtx)
				if pick.tried == nil {
					pick.tried = make(map[int]bool)
				}
				pick.tried[b] = true
				if pick.running == nil {
					pick.running = make(map[int]context.CancelFunc)
				}
				pick.running[b] = cancel
				if pick.owner < 0 {
					pick.owner = b
				}
				var ev *Event
				if speculative {
					s.speculations++
					s.tally(b).speculations++
					ev = &Event{Backend: name, Kind: "speculate",
						Detail: fmt.Sprintf("re-executing in-flight shard %d", pick.index)}
				}
				s.mu.Unlock()
				if ev != nil {
					s.emit(*ev)
				}
				return pick, execCtx, cancel, true
			}
		}
		// Nothing this worker may take right now — marked down, or it
		// already tried every available shard: park until a completion,
		// requeue, mark-up or membership change wakes it.
		s.cond.Wait()
	}
}

// pick chooses a shard for backend b under s.mu: first any shard with
// no running execution that b has not tried (a fresh shard, or one
// whose executions all failed — stealing it), else, when speculation
// is on, the most deserving in-flight shard to re-execute.
func (s *scheduler) pick(b int) (*task, bool) {
	if s.urgent >= 0 {
		for _, t := range s.tasks {
			if t.index != s.urgent {
				continue
			}
			if !t.done && len(t.running) == 0 && !t.tried[b] {
				return t, false
			}
			break
		}
	}
	for _, t := range s.tasks {
		if t.done || len(t.running) > 0 || t.tried[b] {
			continue
		}
		return t, false
	}
	if !s.speculate {
		return nil, false
	}
	return s.speculationVictim(b), true
}

// setUrgent marks the shard the stream interleaver is blocked on (-1
// clears it) and wakes parked workers so an eligible one can take it.
func (s *scheduler) setUrgent(index int) {
	s.mu.Lock()
	s.urgent = index
	s.mu.Unlock()
	s.cond.Broadcast()
}

// hasRunner reports whether shard index has a live execution or is
// already done (shards drained before the run started count as done).
func (s *scheduler) hasRunner(index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tasks {
		if t.index == index {
			return t.done || len(t.running) > 0
		}
	}
	return true
}

// yieldOne frees a worker for the urgent shard by canceling one
// running execution of another shard: the victim is the execution
// with the largest buffered lead (per the lead callback) among
// backends that are eligible to run the urgent shard — healthy and
// not yet failed on it — so the freed worker can actually take it. A
// yield is scheduling, not failure: the backend's tried mark on the
// victim shard is cleared, and the shard resumes later from its
// stream watermark, re-evaluating nothing. Returns false when no
// eligible execution exists.
func (s *scheduler) yieldOne(urgent int, lead func(index int) int) bool {
	s.mu.Lock()
	var ut *task
	for _, t := range s.tasks {
		if t.index == urgent {
			ut = t
			break
		}
	}
	if ut == nil || ut.done {
		s.mu.Unlock()
		return false
	}
	var victim *task
	victimB := -1
	bestLead := -1
	for _, t := range s.tasks {
		if t.done || t.index == urgent || len(t.running) == 0 {
			continue
		}
		l := lead(t.index)
		if l <= bestLead {
			continue
		}
		for b := range t.running {
			if ut.tried[b] {
				continue
			}
			if s.healthy != nil && !s.healthy(b) {
				continue
			}
			victim, victimB, bestLead = t, b, l
			break
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return false
	}
	cancel := victim.running[victimB]
	delete(victim.running, victimB)
	delete(victim.tried, victimB)
	if victim.yielded == nil {
		victim.yielded = make(map[int]bool)
	}
	victim.yielded[victimB] = true
	s.mu.Unlock()
	cancel()
	s.cond.Broadcast()
	return true
}

// consumeYield reports whether backend b's just-ended execution of t
// was a yield, consuming the mark.
func (s *scheduler) consumeYield(t *task, b int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !t.yielded[b] {
		return false
	}
	delete(t.yielded, b)
	return true
}

// speculationVictim chooses the in-flight shard backend b should race:
// the one with the fewest running copies, tie-broken toward the
// weakest current runner (that is the execution most worth hedging)
// and then the lowest shard index. Returns nil when no shard is
// eligible — all are at the speculation cap, b already tried them, or
// b itself is weaker than every current runner.
func (s *scheduler) speculationVictim(b int) *task {
	var best *task
	var bestCopies int
	var bestW float64
	bw := s.weightOf(b)
	for _, t := range s.tasks {
		if t.done || len(t.running) == 0 || len(t.running) >= speculationCap || t.tried[b] {
			continue
		}
		w := s.minRunnerWeight(t)
		if bw < w {
			// Hedging a faster backend with a slower one only adds load.
			continue
		}
		if best == nil || len(t.running) < bestCopies ||
			(len(t.running) == bestCopies && w < bestW) {
			best, bestCopies, bestW = t, len(t.running), w
		}
	}
	return best
}

func (s *scheduler) weightOf(b int) float64 {
	if s.weight == nil {
		return 1
	}
	return s.weight(b)
}

func (s *scheduler) minRunnerWeight(t *task) float64 {
	min := -1.0
	for b := range t.running {
		if w := s.weightOf(b); min < 0 || w < min {
			min = w
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// win claims the shard for backend b's finished result. False means
// the result must be discarded: a rival already won the shard, or the
// run failed. On a win every rival execution is canceled — their
// answers would be byte-identical, so racing on is pure waste.
func (s *scheduler) win(t *task, b int, name string) bool {
	var rivals []context.CancelFunc
	var ev *Event
	s.mu.Lock()
	delete(t.running, b)
	if t.done || s.failed != nil {
		if t.done {
			s.duplicates++
			s.tally(b).duplicates++
			ev = &Event{Backend: name, Kind: "duplicate",
				Detail: fmt.Sprintf("shard %d already won by a rival; result discarded", t.index)}
		}
		s.mu.Unlock()
		if ev != nil {
			s.emit(*ev)
		}
		return false
	}
	t.done = true
	for _, cancel := range t.running {
		rivals = append(rivals, cancel)
	}
	clear(t.running)
	tly := s.tally(b)
	tly.shards++
	if t.owner != b {
		s.steals++
		tly.steals++
		ev = &Event{Backend: name, Kind: "steal",
			Detail: fmt.Sprintf("shard %d completed away from its first backend", t.index)}
	}
	s.mu.Unlock()
	for _, cancel := range rivals {
		cancel()
	}
	if ev != nil {
		s.emit(*ev)
	}
	return true
}

// complete marks one shard's result merged (and checkpointed, when the
// run saves checkpoints). Kept separate from win so a checkpoint-save
// failure can still abort the run: fail's done < total guard holds
// until the merge is durable.
func (s *scheduler) complete() {
	s.mu.Lock()
	s.doneCount++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// taskDone reports whether the shard already has a winner.
func (s *scheduler) taskDone(t *task) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.done
}

// requeue records a transport failure of shard t on backend b. The
// shard stays in the pool for any backend that has not tried it; when
// every live backend has now failed it and no execution is still in
// flight, the run fails with the last transport error.
func (s *scheduler) requeue(t *task, b int, err error) {
	var stop func()
	s.mu.Lock()
	delete(t.running, b)
	s.tally(b).transportFailures++
	if t.done || s.failed != nil {
		s.mu.Unlock()
		s.cond.Broadcast()
		return
	}
	s.requeues++
	t.lastErr = err
	if s.exhaustedLocked(t) && len(t.running) == 0 {
		s.failed = fmt.Errorf("fleet: shard %d failed on every backend: %w", t.index, err)
		stop = s.stop
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if stop != nil {
		stop()
	}
}

// exhaustedLocked reports whether every live backend already tried t.
// Callers hold s.mu.
func (s *scheduler) exhaustedLocked(t *task) bool {
	for _, id := range s.liveIDs() {
		if !t.tried[id] {
			return false
		}
	}
	return true
}

// recheck re-evaluates exhaustion after a membership change: removing
// a backend can leave a failed-everywhere shard with no backend left
// to try it, which without this check would park every worker forever.
func (s *scheduler) recheck() {
	var stop func()
	s.mu.Lock()
	if s.failed == nil && s.doneCount < s.total {
		live := s.liveIDs()
		for _, t := range s.tasks {
			if t.done || len(t.running) > 0 {
				continue
			}
			if len(live) == 0 {
				s.failed = fmt.Errorf("fleet: every backend left with shard %d outstanding", t.index)
				stop = s.stop
				break
			}
			if t.lastErr != nil && s.exhaustedLocked(t) {
				s.failed = fmt.Errorf("fleet: shard %d failed on every backend: %w", t.index, t.lastErr)
				stop = s.stop
				break
			}
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if stop != nil {
		stop()
	}
}

// fail aborts the run with a fatal error (a deterministic evaluation
// failure, or a canceled context). A run whose every shard already
// completed cannot fail retroactively: the context watcher may observe
// cancellation in the gap after the last merge, and the fully-computed
// answer must win that race. (Fatal evaluation errors always arrive
// with their own shard incomplete, so the guard never masks one.)
func (s *scheduler) fail(err error) {
	var stop func()
	s.mu.Lock()
	if s.failed == nil && s.doneCount < s.total {
		s.failed = err
		stop = s.stop
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if stop != nil {
		stop()
	}
}

// await blocks until every shard is done or the run failed. This —
// not the worker WaitGroup — decides when the run is over, so late
// joiners can add workers while the run lives without racing Wait.
func (s *scheduler) await() {
	s.mu.Lock()
	for s.failed == nil && s.doneCount < s.total {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// err returns the fatal failure, if any.
func (s *scheduler) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}
