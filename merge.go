package actuary

import (
	"fmt"

	"chipletactuary/internal/explore"
	"chipletactuary/internal/sweep"
)

// Shard merging: a QuestionSweepBest request carrying a shard spec
// answers one stripe of its grid; the SweepBestMerger folds those
// partial answers back into the whole-grid answer. Top-K and the
// Pareto front merge exactly (the global top-K is contained in the
// union of per-shard top-Ks, the global front in the union of shard
// fronts, and the ID tie-break makes both independent of shard count
// and arrival order); Summary counts, extremes and their labels merge
// exactly, while Sum/Mean may differ from a single-process run by
// floating-point reassociation error. Pruning statistics sum exactly
// because every grid candidate belongs to exactly one shard.

// newSweepTopK and newSweepPareto are the one definition of the
// sweep-best ranking — total cost per unit with ID tie-breaking, and
// the RE-vs-amortized-NRE front — shared by the per-shard evaluation
// (Session.sweepBest) and the merge layer. A single definition is what
// makes "merged shards equal the unsharded answer" robust: two copies
// could drift and silently re-rank the union under a different metric.
func newSweepTopK(k int) *sweep.TopK[SweepPoint] {
	return sweep.NewTopK(k, func(p SweepPoint) float64 { return p.Total.Total() }).
		TieBreak(func(p SweepPoint) string { return p.ID })
}

func newSweepPareto() *sweep.Pareto[SweepPoint] {
	return sweep.NewPareto(func(p SweepPoint) (float64, float64) {
		return p.Total.RE.Total(), p.Total.NRE.Total()
	}).TieBreak(func(p SweepPoint) string { return p.ID })
}

// ShardID labels shard index of count of a request ID — the one format
// both the scenario compiler and the fleet coordinator stamp, so
// shard requests correlate across logs, metrics and results whichever
// path dispatched them.
func ShardID(id string, index, count int) string {
	return fmt.Sprintf("%s#%d.%d", id, index, count)
}

// SweepBestMerger combines the SweepBest answers of a sweep's shards
// into one whole-grid answer, online — Add as each shard drains, in
// any order.
type SweepBestMerger struct {
	top                         *sweep.TopK[SweepPoint]
	front                       *sweep.Pareto[SweepPoint]
	summary                     SweepSummary
	pruned, deduped, infeasible int
	firstFailure                error
	firstFailureCand            int
}

// NewSweepBestMerger builds a merger retaining the topK cheapest
// points (topK < 1 is raised to 1, matching QuestionSweepBest). Use
// the same TopK bound as the shard requests: a shard retains only its
// own topK points, so a larger merge bound could not be filled
// faithfully.
func NewSweepBestMerger(topK int) *SweepBestMerger {
	return &SweepBestMerger{top: newSweepTopK(topK), front: newSweepPareto()}
}

// Add folds one shard's answer into the merge. A nil or empty answer
// (a shard that owned no feasible candidate) contributes only its
// statistics. Shard failures carry their grid candidate position, so
// whatever order shards are added, the merged FirstFailure is the
// globally first failing point — exactly the one an unsharded walk
// reports.
func (m *SweepBestMerger) Add(b *SweepBest) {
	if b == nil {
		return
	}
	for _, p := range b.Top {
		m.top.Observe(p)
	}
	for _, p := range b.Pareto {
		m.front.Observe(p)
	}
	m.summary.Merge(b.Summary)
	m.pruned += b.Pruned
	m.deduped += b.Deduped
	m.infeasible += b.Infeasible
	if b.FirstFailure != nil &&
		(m.firstFailure == nil || b.FirstFailureCandidate < m.firstFailureCand) {
		m.firstFailure = b.FirstFailure
		m.firstFailureCand = b.FirstFailureCandidate
	}
}

// Merged returns the combined answer of everything added so far. The
// merger remains usable; the returned value does not alias its state.
func (m *SweepBestMerger) Merged() *SweepBest {
	return &SweepBest{
		Top:                   m.top.Sorted(),
		Pareto:                m.front.Front(),
		Summary:               m.summary,
		Pruned:                m.pruned,
		Deduped:               m.deduped,
		Infeasible:            m.infeasible,
		FirstFailure:          m.firstFailure,
		FirstFailureCandidate: m.firstFailureCand,
	}
}

// Result returns the merged answer, or — when no shard contributed a
// feasible point — the same classified ErrInfeasible error an
// unsharded QuestionSweepBest would have produced for the grid, with
// the first per-point failure kept in the chain so the error taxonomy
// survives (a typo'd node still classifies ErrUnknownNode).
func (m *SweepBestMerger) Result(gridName string) (*SweepBest, error) {
	if m.summary.Count == 0 {
		err := fmt.Errorf("actuary: %w: no feasible point in sweep grid %q (%d pruned, %d infeasible)",
			explore.ErrInfeasible, gridName, m.pruned, m.infeasible)
		if m.firstFailure != nil {
			err = fmt.Errorf("%w; first failure: %w", err, m.firstFailure)
		}
		code := classify(err)
		// A failure that crossed a process boundary carries its code
		// structurally instead of a Go error chain; let it outrank the
		// infeasibility classification exactly as its live chain would
		// have (classify checks canceled and unknown-node first).
		if ae, ok := AsError(m.firstFailure); ok &&
			(ae.Code == ErrCanceled || ae.Code == ErrUnknownNode) {
			code = ae.Code
		}
		return nil, &Error{Code: code, Index: -1, ID: gridName,
			Question: QuestionSweepBest, Err: err}
	}
	return m.Merged(), nil
}

// FailureCause returns the underlying cause of a structured *Error,
// or err unchanged. Shard failures that crossed a process boundary
// arrive wrapped in the structured wire form while in-process ones
// are raw chains; rendering the cause gives identical text either
// way, which is what keeps sharded CLI output byte-identical to the
// single-process run.
func FailureCause(err error) error {
	if ae, ok := AsError(err); ok && ae.Err != nil {
		return ae.Err
	}
	return err
}
