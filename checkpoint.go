package actuary

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"chipletactuary/internal/sweep"
	"chipletactuary/search"
)

// Checkpoint/resume: a multi-hour sweep must survive losing its
// process — or its host — without losing drained work. Each pipeline
// layer snapshots the state that is expensive to recompute and cheap
// to carry: the generation layer its cursor (internal/sweep), the
// aggregation layer its retained sets, the coordination layer its
// drained shards. Because generation is deterministic and every
// aggregate is order-independent under ID tie-breaking, a run resumed
// from any checkpoint ends byte-identical to one that was never
// interrupted; the wire forms (see wire.go) are versioned canonical
// JSON so the checkpoint also survives crossing process and host
// boundaries.
//
// The five forms, by layer (Checkpoint is their type set):
//
//   - SweepCheckpoint: one sweep-best walk (Session.SweepBestCheckpointed,
//     cmd/explore -checkpoint).
//   - SearchCheckpoint: one adaptive search walk
//     (Session.SearchBestCheckpointed) — the planner's stage machine
//     plus the cursor within the current stage.
//   - StreamCheckpoint: a scenario result stream reduced through the
//     online aggregators (ReduceCheckpointed over a StreamOrdered
//     stream; /v1/stream's "resume" field replays delivery from its
//     Next index).
//   - FleetStreamCheckpoint: a striped stream
//     (fleet.StreamCoordinator.StreamCheckpointed) — the merged cursor
//     plus one delivery cursor per shard.
//   - CoordinatorCheckpoint: per-shard progress of a sharded sweep
//     (fleet.Coordinator.SweepBestCheckpointed) — a restarted
//     coordinator re-dispatches only the shards that had not drained.

// SweepCursor is the serializable resume point of a sweep walk: the
// next grid candidate plus generation accounting (re-exported from the
// generation layer).
type SweepCursor = sweep.Cursor

// SweepStats is the generation-layer accounting a cursor carries.
type SweepStats = sweep.Stats

// SweepCheckpoint is the snapshot of a partially drained sweep-best
// walk: where the generator stood and everything the online
// aggregators had retained. Resuming (Session.SweepBestCheckpointed)
// continues the walk at Cursor and ends with exactly the SweepBest an
// uninterrupted evaluation of the same request produces.
type SweepCheckpoint struct {
	// Fingerprint identifies the workload (SweepFingerprint of the
	// request); resume rejects a checkpoint whose fingerprint does not
	// match the request it is offered for.
	Fingerprint string
	// Cursor is the generator resume point.
	Cursor SweepCursor
	// Top and Pareto are the retained aggregator sets, in canonical
	// order; Summary covers every feasible point seen so far.
	Top     []SweepPoint
	Pareto  []SweepPoint
	Summary SweepSummary
	// Infeasible, FirstFailure and FirstFailureCandidate mirror the
	// same fields of SweepBest for the drained prefix.
	Infeasible            int
	FirstFailure          error
	FirstFailureCandidate int
}

// SearchCheckpoint is the snapshot of a partially drained adaptive
// search (Session.SearchBestCheckpointed): the planner — whose stage
// history, frozen bounds and surviving slabs fully determine every
// remaining candidate — plus the generator cursor within the current
// stage and everything the aggregators retained. Because the planner's
// decisions are serialized rather than re-derived, a resumed search
// replans nothing: it walks exactly the candidates the uninterrupted
// run would have, evaluates none of them twice, and ends with a
// byte-identical SearchBest.
type SearchCheckpoint struct {
	// Fingerprint identifies the workload (SearchFingerprint of the
	// request); resume rejects a checkpoint whose fingerprint does not
	// match the request it is offered for.
	Fingerprint string
	// Planner is the serialized stage machine: phase, stride, surviving
	// slabs, completed-stage history and the current stage's plans.
	Planner *search.Planner
	// Cursor is the generator resume point within the current stage.
	Cursor SweepCursor
	// Totals accumulates the generation accounting of completed stages
	// (the current stage's share lives in Cursor.Stats).
	Totals SweepStats
	// Top and Pareto are the retained aggregator sets, in canonical
	// order. The Pareto front exists to steer refinement (knee targets),
	// not to be reported.
	Top    []SweepPoint
	Pareto []SweepPoint
	// Infeasible, FirstFailure and FirstFailureCandidate mirror the
	// sweep checkpoint's failure accounting for the drained prefix.
	Infeasible            int
	FirstFailure          error
	FirstFailureCandidate int
	// SlabBest holds the best sampled cost per still-alive slab of the
	// current successive-halving round (sparse: slabs with no feasible
	// sample yet are absent).
	SlabBest []SearchSlabScore
	// Trajectory is the incumbent-best history across completed stages.
	Trajectory []SearchIncumbent
}

// SearchSlabScore pairs a slab index of the current halving round with
// the best total cost sampled inside it so far.
type SearchSlabScore struct {
	Slab int
	Cost float64
}

// StreamCheckpoint is the snapshot of a scenario result stream reduced
// through the online aggregators: every result with index below Next
// is accounted in the aggregators, nothing at or above it is. Feed it
// an index-ordered stream (the StreamOrdered option) via
// ReduceCheckpointed; resume by streaming again with
// StreamResumeAt(Next) + StreamOrdered — or, against a daemon, a
// scenario "resume" field with next_index Next.
type StreamCheckpoint struct {
	// Fingerprint identifies the scenario (ScenarioConfig.Fingerprint);
	// callers should reject a checkpoint whose fingerprint does not
	// match the scenario they are about to resume.
	Fingerprint string
	// Next is the stream index of the first unaccounted result.
	Next int
	// TopK, Pareto and Stats are the live aggregators; any of them may
	// be nil when the consumer does not track that reduction.
	TopK   *CostTopK
	Pareto *CostPareto
	Stats  *StreamStats
}

// NewStreamCheckpoint builds the empty checkpoint of a fresh scenario
// stream: index 0, all three aggregators installed, top-K bound k.
func NewStreamCheckpoint(fingerprint string, k int) *StreamCheckpoint {
	return &StreamCheckpoint{Fingerprint: fingerprint,
		TopK: NewCostTopK(k), Pareto: NewCostPareto(), Stats: &StreamStats{}}
}

// aggregators returns the installed aggregators.
func (c *StreamCheckpoint) aggregators() []StreamAggregator {
	var aggs []StreamAggregator
	if c.TopK != nil {
		aggs = append(aggs, c.TopK)
	}
	if c.Pareto != nil {
		aggs = append(aggs, c.Pareto)
	}
	if c.Stats != nil {
		aggs = append(aggs, c.Stats)
	}
	return aggs
}

// FleetStreamCheckpoint records the progress of a fleet-striped
// scenario stream (fleet.StreamCoordinator): the merged consumer-side
// stream checkpoint plus one delivery cursor per stream shard. The
// per-shard cursors ride the existing StreamCheckpoint form — each is
// exactly the checkpoint a single-backend consumer of that shard's
// scenario would carry — so a resumed coordinator re-opens every
// shard stream at its cursor and re-evaluates nothing of the
// delivered prefix.
type FleetStreamCheckpoint struct {
	// Merged is the checkpoint of the interleaved output stream:
	// Fingerprint identifies the unsharded scenario, Next is the
	// global index of the first undelivered result, and the
	// aggregators hold the merged reduction of the delivered prefix.
	Merged *StreamCheckpoint
	// Shards is the stripe count of the run; a resuming coordinator
	// must stripe the same scenario the same way.
	Shards int
	// Cursors holds one cursor per shard, ascending by shard index:
	// Fingerprint identifies the shard's own scenario (the unsharded
	// scenario plus shard spec i of Shards) and Next counts the
	// shard-local results already merged into the delivered prefix.
	// Cursor aggregators are nil — merged state lives in Merged.
	Cursors []StreamCheckpoint
}

// Validate checks the structural invariants: a merged checkpoint, at
// least one shard, one cursor per shard, non-negative cursors that
// sum to the merged Next (the interleaver consumes exactly one
// shard-local result per delivered global index). The wire decoder
// applies it to every decoded checkpoint and the coordinator
// re-applies it on resume — one rule set, two doors.
func (c *FleetStreamCheckpoint) Validate() error {
	if c.Merged == nil {
		return fmt.Errorf("actuary: fleet stream checkpoint has no merged checkpoint")
	}
	if c.Merged.Next < 0 {
		return fmt.Errorf("actuary: fleet stream checkpoint resumes at negative index %d", c.Merged.Next)
	}
	if c.Shards < 1 {
		return fmt.Errorf("actuary: fleet stream checkpoint has %d shards", c.Shards)
	}
	if len(c.Cursors) != c.Shards {
		return fmt.Errorf("actuary: fleet stream checkpoint has %d cursors for %d shards", len(c.Cursors), c.Shards)
	}
	sum := 0
	for i, cur := range c.Cursors {
		if cur.Next < 0 {
			return fmt.Errorf("actuary: fleet stream checkpoint cursor %d resumes at negative index %d", i, cur.Next)
		}
		sum += cur.Next
	}
	if sum != c.Merged.Next {
		return fmt.Errorf("actuary: fleet stream checkpoint cursors sum to %d, merged next is %d", sum, c.Merged.Next)
	}
	return nil
}

// CoordinatorCheckpoint records the per-shard progress of a
// distributed sweep: which of the Shards stripes have drained, and
// their answers. A coordinator resumed from it merges the recorded
// answers and dispatches only the missing shards.
type CoordinatorCheckpoint struct {
	// Fingerprint identifies the workload (SweepFingerprint of the
	// unsharded request); Shards is the shard count of the run — both
	// must match the resuming coordinator's.
	Fingerprint string
	Shards      int
	// Completed holds one entry per drained shard, ascending by index.
	Completed []ShardResult
}

// ShardResult pairs a drained shard's index with its answer.
type ShardResult struct {
	Shard int
	Best  *SweepBest
}

// Validate checks the structural invariants of the recorded progress:
// a shard count of at least one, and completed entries in range,
// unique, each carrying an answer. The wire decoder applies it to
// every decoded checkpoint, and the coordinator re-applies it on
// resume so an in-memory checkpoint that never crossed the wire gets
// exactly the same scrutiny — one rule set, two doors.
func (c *CoordinatorCheckpoint) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("actuary: coordinator checkpoint has %d shards", c.Shards)
	}
	seen := make(map[int]bool, len(c.Completed))
	for _, sr := range c.Completed {
		if sr.Shard < 0 || sr.Shard >= c.Shards {
			return fmt.Errorf("actuary: coordinator checkpoint records shard %d of %d", sr.Shard, c.Shards)
		}
		if seen[sr.Shard] {
			return fmt.Errorf("actuary: coordinator checkpoint records shard %d twice", sr.Shard)
		}
		if sr.Best == nil {
			return fmt.Errorf("actuary: coordinator checkpoint records shard %d without an answer", sr.Shard)
		}
		seen[sr.Shard] = true
	}
	return nil
}

// Checkpoint is the type set of the five checkpoint forms — the only
// types SaveCheckpointFile and LoadCheckpointFile accept.
type Checkpoint interface {
	SweepCheckpoint | SearchCheckpoint | StreamCheckpoint | FleetStreamCheckpoint | CoordinatorCheckpoint
}

// SaveCheckpointFile atomically persists a checkpoint: the JSON is
// written to a temporary file in the target's directory, synced, and
// renamed over path, so a crash — even an uncatchable SIGKILL — leaves
// either the previous checkpoint or the new one, never a torn file.
func SaveCheckpointFile[T Checkpoint](path string, cp *T) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("actuary: encoding checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("actuary: writing checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("actuary: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("actuary: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("actuary: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("actuary: committing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads and strictly decodes a checkpoint of form
// T through its wire decoder. A missing file returns an error
// satisfying errors.Is(err, os.ErrNotExist) — the caller's cue to
// start fresh.
func LoadCheckpointFile[T Checkpoint](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := new(T)
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("actuary: checkpoint %s: %w", path, err)
	}
	return cp, nil
}
