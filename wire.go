package actuary

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/sweep"
	"chipletactuary/internal/wirejson"
	"chipletactuary/search"
)

// Wire protocol v1: the canonical, transport-neutral JSON forms of
// the evaluation API. Request, Result, Question, *Error, SweepBest
// and TotalCost all implement json.Marshaler/json.Unmarshaler with
// these guarantees:
//
//   - Round trip: Unmarshal(Marshal(v)) reconstructs v exactly, for
//     every value the Session can produce (errors keep their code,
//     location and message; the wrapped Go error chain itself cannot
//     cross a process boundary).
//   - Strictness: unknown fields, unknown question names, unknown
//     scheme/flow/policy/topology labels and malformed unions are
//     rejected at decode time, so client/server schema drift surfaces
//     as an error instead of silent data loss.
//   - Shared vocabulary: enum labels on the wire are exactly the
//     strings the scenario schema (ScenarioConfig) accepts —
//     "total-cost", "MCM", "chip-last", "per-system-unit" — parsed by
//     the same functions, so scenario files and the wire format
//     cannot drift apart.
//
// cmd/actuaryd serves this protocol over HTTP (see the server
// package); the client package speaks it back. Programs embedding the
// library can also persist Requests/Results with plain encoding/json.

// MarshalText implements encoding.TextMarshaler with the names
// ParseQuestion accepts; unknown question values are rejected.
func (q Question) MarshalText() ([]byte, error) {
	switch q {
	case QuestionTotalCost, QuestionRE, QuestionWafers, QuestionCrossoverQuantity,
		QuestionOptimalChipletCount, QuestionAreaCrossover, QuestionSweepBest,
		QuestionSearchBest:
		return []byte(q.String()), nil
	default:
		return nil, fmt.Errorf("actuary: cannot marshal unknown question %d", int(q))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseQuestion.
func (q *Question) UnmarshalText(text []byte) error {
	parsed, err := ParseQuestion(string(text))
	if err != nil {
		return err
	}
	*q = parsed
	return nil
}

// QuestionInfo describes one question of the evaluation API for
// discovery (GET /v1/questions).
type QuestionInfo struct {
	// Name is the canonical wire name.
	Name string `json:"name"`
	// Aliases are the alternative names ParseQuestion accepts.
	Aliases []string `json:"aliases,omitempty"`
	// Summary is a one-line human description.
	Summary string `json:"summary"`
	// Fields lists the Request fields the question consumes.
	Fields []string `json:"fields"`
	// Shardable reports whether the question accepts the
	// request-level shard_index/shard_count fields — a partial answer
	// over one grid stripe that merges with its siblings into the
	// whole-grid answer. Scenario-level sharding (the scenario's own
	// shard_index/shard_count) partitions the request stream of every
	// question regardless.
	Shardable bool `json:"shardable"`
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// so a drifted /v1/questions self-description fails loudly instead of
// silently dropping what a newer server advertises.
func (q *QuestionInfo) UnmarshalJSON(data []byte) error {
	type wire QuestionInfo
	var w wire
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding question info: %w", err)
	}
	*q = QuestionInfo(w)
	return nil
}

// Questions enumerates the evaluation API, in Question order.
func Questions() []QuestionInfo {
	return []QuestionInfo{
		{Name: "total-cost", Aliases: []string{"total"},
			Summary: "RE plus amortized NRE per unit of one system (§3.2 + §3.3)",
			Fields:  []string{"system", "policy"}},
		{Name: "re", Aliases: []string{"recurring"},
			Summary: "recurring manufacturing cost per unit of one system (§3.2)",
			Fields:  []string{"system"}},
		{Name: "wafers", Aliases: nil,
			Summary: "wafer starts per node to ship a production quantity",
			Fields:  []string{"system", "quantity"}},
		{Name: "crossover-quantity", Aliases: []string{"payback"},
			Summary: "production quantity where the challenger's total cost drops to the incumbent's (§4.2)",
			Fields:  []string{"incumbent", "challenger"}},
		{Name: "optimal-chiplet-count", Aliases: []string{"optimal-k"},
			Summary: "partition-count sweep 1..max_k with the cheapest point (§6)",
			Fields:  []string{"node", "module_area_mm2", "max_k", "scheme", "d2d", "quantity"}},
		{Name: "area-crossover", Aliases: []string{"turning"},
			Summary: "module area where k chiplets start beating the monolithic SoC on RE (§4.1)",
			Fields:  []string{"node", "k", "scheme", "d2d", "lo_mm2", "hi_mm2"}},
		{Name: "sweep-best", Aliases: []string{"best"},
			Summary: "top-K, Pareto front and summary of a lazily streamed design-space grid",
			Fields:  []string{"grid", "top_k", "policy", "shard_index", "shard_count"}, Shardable: true},
		{Name: "search-best", Aliases: []string{"search"},
			Summary: "top-K of a design-space grid by adaptive search (lower-bound pruning, refinement, successive halving)",
			Fields:  []string{"grid", "top_k", "policy", "search", "shard_index", "shard_count"}, Shardable: true},
	}
}

// ParseErrorCode converts a stable wire label ("invalid-config",
// "unknown-node", "infeasible", "canceled", "transport") to an
// ErrorCode.
func ParseErrorCode(name string) (ErrorCode, error) {
	switch name {
	case "invalid-config":
		return ErrInvalidConfig, nil
	case "unknown-node":
		return ErrUnknownNode, nil
	case "infeasible":
		return ErrInfeasible, nil
	case "canceled":
		return ErrCanceled, nil
	case "transport":
		return ErrTransport, nil
	default:
		return 0, fmt.Errorf("actuary: unknown error code %q", name)
	}
}

// MarshalText implements encoding.TextMarshaler with the labels
// ParseErrorCode accepts.
func (c ErrorCode) MarshalText() ([]byte, error) {
	switch c {
	case ErrInvalidConfig, ErrUnknownNode, ErrInfeasible, ErrCanceled, ErrTransport:
		return []byte(c.String()), nil
	default:
		return nil, fmt.Errorf("actuary: cannot marshal unknown error code %d", int(c))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler via
// ParseErrorCode.
func (c *ErrorCode) UnmarshalText(text []byte) error {
	parsed, err := ParseErrorCode(string(text))
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// wireError is the canonical JSON shape of a structured error. The
// question travels as its wire name; errors without one (client-side
// transport failures) omit the field.
type wireError struct {
	Code     ErrorCode `json:"code"`
	Index    int       `json:"index,omitempty"`
	ID       string    `json:"id,omitempty"`
	Question string    `json:"question,omitempty"`
	Message  string    `json:"message,omitempty"`
}

// MarshalJSON implements json.Marshaler. The underlying cause crosses
// the wire as its message; the classified code, batch location and
// question survive structurally.
func (e *Error) MarshalJSON() ([]byte, error) {
	w := wireError{Code: e.Code, Index: e.Index, ID: e.ID}
	if text, err := e.Question.MarshalText(); err == nil {
		w.Question = string(text)
	}
	if e.Err != nil {
		w.Message = e.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
// The decoded cause is an opaque error carrying the sender's message;
// route on Code rather than errors.Is across a process boundary.
func (e *Error) UnmarshalJSON(data []byte) error {
	var w wireError
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding error: %w", err)
	}
	*e = Error{Code: w.Code, Index: w.Index, ID: w.ID}
	if w.Question != "" {
		if err := e.Question.UnmarshalText([]byte(w.Question)); err != nil {
			return err
		}
	} else {
		// No question on the wire means the error never had one (a
		// transport failure); keep that explicit rather than letting
		// the zero value masquerade as total-cost.
		e.Question = -1
	}
	if w.Message != "" {
		e.Err = errors.New(w.Message)
	}
	return nil
}

// wireRequest is the canonical JSON shape of a Request. Only the
// fields the question consumes appear on the wire; zero-valued
// defaults are omitted and reconstructed on decode. The question is a
// string here (not a Question) so decoding can distinguish an absent
// field from total-cost and reject it — defaulting would silently
// answer the wrong question.
type wireRequest struct {
	ID            string             `json:"id,omitempty"`
	Question      string             `json:"question"`
	System        *System            `json:"system,omitempty"`
	Policy        AmortizationPolicy `json:"policy,omitempty"`
	Quantity      float64            `json:"quantity,omitempty"`
	Incumbent     *System            `json:"incumbent,omitempty"`
	Challenger    *System            `json:"challenger,omitempty"`
	Node          string             `json:"node,omitempty"`
	ModuleAreaMM2 float64            `json:"module_area_mm2,omitempty"`
	Scheme        Scheme             `json:"scheme,omitempty"`
	D2D           json.RawMessage    `json:"d2d,omitempty"`
	MaxK          int                `json:"max_k,omitempty"`
	K             int                `json:"k,omitempty"`
	LoMM2         float64            `json:"lo_mm2,omitempty"`
	HiMM2         float64            `json:"hi_mm2,omitempty"`
	Grid          *SweepGrid         `json:"grid,omitempty"`
	TopK          int                `json:"top_k,omitempty"`
	ShardIndex    int                `json:"shard_index,omitempty"`
	ShardCount    int                `json:"shard_count,omitempty"`
	Search        *SearchSpec        `json:"search,omitempty"`
}

// systemOrNil returns &s when s carries any data, nil for the zero
// System, so unused system slots stay off the wire.
func systemOrNil(s System) *System {
	if reflect.DeepEqual(s, System{}) {
		return nil
	}
	return &s
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (r Request) MarshalJSON() ([]byte, error) {
	question, err := r.Question.MarshalText()
	if err != nil {
		return nil, err
	}
	w := wireRequest{
		ID: r.ID, Question: string(question),
		System: systemOrNil(r.System), Policy: r.Policy, Quantity: r.Quantity,
		Incumbent: systemOrNil(r.Incumbent), Challenger: systemOrNil(r.Challenger),
		Node: r.Node, ModuleAreaMM2: r.ModuleAreaMM2, Scheme: r.Scheme,
		MaxK: r.MaxK, K: r.K, LoMM2: r.LoMM2, HiMM2: r.HiMM2,
		Grid: r.Grid, TopK: r.TopK,
		ShardIndex: r.ShardIndex, ShardCount: r.ShardCount,
		Search: r.Search,
	}
	if r.D2D != nil {
		d2d, err := dtod.MarshalOverhead(r.D2D)
		if err != nil {
			return nil, fmt.Errorf("actuary: request %q: %w", r.ID, err)
		}
		w.D2D = d2d
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and unknown question names.
func (r *Request) UnmarshalJSON(data []byte) error {
	var w wireRequest
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding request: %w", err)
	}
	if w.Question == "" {
		return fmt.Errorf("actuary: decoding request %q: missing question", w.ID)
	}
	question, err := ParseQuestion(w.Question)
	if err != nil {
		return fmt.Errorf("actuary: decoding request %q: %w", w.ID, err)
	}
	req := Request{
		ID: w.ID, Question: question,
		Policy: w.Policy, Quantity: w.Quantity,
		Node: w.Node, ModuleAreaMM2: w.ModuleAreaMM2, Scheme: w.Scheme,
		MaxK: w.MaxK, K: w.K, LoMM2: w.LoMM2, HiMM2: w.HiMM2,
		Grid: w.Grid, TopK: w.TopK,
		ShardIndex: w.ShardIndex, ShardCount: w.ShardCount,
		Search: w.Search,
	}
	if w.System != nil {
		req.System = *w.System
	}
	if w.Incumbent != nil {
		req.Incumbent = *w.Incumbent
	}
	if w.Challenger != nil {
		req.Challenger = *w.Challenger
	}
	if len(w.D2D) > 0 {
		d2d, err := dtod.UnmarshalOverhead(w.D2D)
		if err != nil {
			return fmt.Errorf("actuary: decoding request %q: %w", w.ID, err)
		}
		req.D2D = d2d
	}
	*r = req
	return nil
}

// wireSweepPoint is the canonical JSON shape of an evaluated sweep
// point.
type wireSweepPoint struct {
	ID       string    `json:"id"`
	Node     string    `json:"node"`
	Scheme   Scheme    `json:"scheme"`
	AreaMM2  float64   `json:"area_mm2"`
	K        int       `json:"k"`
	Quantity float64   `json:"quantity"`
	Total    TotalCost `json:"total"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (p SweepPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireSweepPoint(p))
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
func (p *SweepPoint) UnmarshalJSON(data []byte) error {
	var w wireSweepPoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding sweep point: %w", err)
	}
	*p = SweepPoint(w)
	return nil
}

// wireSweepBest is the canonical JSON shape of a sweep-best answer.
// The first per-point failure crosses the wire in the structured error
// form, so its classified code survives the transport — a shard
// answered by a remote daemon still explains a typo'd node as
// unknown-node when the merged sweep comes up empty (the raw Go error
// chain itself cannot cross a process boundary).
type wireSweepBest struct {
	Top        []SweepPoint `json:"top"`
	Pareto     []SweepPoint `json:"pareto"`
	Summary    SweepSummary `json:"summary"`
	Pruned     int          `json:"pruned,omitempty"`
	Deduped    int          `json:"deduped,omitempty"`
	Infeasible int          `json:"infeasible,omitempty"`
	// FirstFailure is encoded as a structured Error; decode also
	// accepts the bare message string earlier v1 encoders emitted, so
	// a newer reader still understands an older daemon (a legacy
	// string decodes to the same opaque error it always did, without
	// a code).
	FirstFailure json.RawMessage `json:"first_failure,omitempty"`
	// FirstFailureCandidate positions the failure in the grid's
	// odometer order, so merged shards report the globally first one.
	FirstFailureCandidate int `json:"first_failure_candidate,omitempty"`
}

// wireFirstFailure lifts a per-point sweep failure into the structured
// wire form: a *Error passes through, anything else is classified in
// place. The location fields carry no information inside a SweepBest.
func wireFirstFailure(err error) *Error {
	if err == nil {
		return nil
	}
	if ae, ok := AsError(err); ok {
		return ae
	}
	return &Error{Code: classify(err), Index: -1, Question: -1, Err: err}
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (b SweepBest) MarshalJSON() ([]byte, error) {
	w := wireSweepBest{Top: b.Top, Pareto: b.Pareto, Summary: b.Summary,
		Pruned: b.Pruned, Deduped: b.Deduped, Infeasible: b.Infeasible,
		FirstFailureCandidate: b.FirstFailureCandidate}
	if fe := wireFirstFailure(b.FirstFailure); fe != nil {
		data, err := json.Marshal(fe)
		if err != nil {
			return nil, fmt.Errorf("actuary: encoding sweep-best failure: %w", err)
		}
		w.FirstFailure = data
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
func (b *SweepBest) UnmarshalJSON(data []byte) error {
	var w wireSweepBest
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding sweep-best: %w", err)
	}
	*b = SweepBest{Top: w.Top, Pareto: w.Pareto, Summary: w.Summary,
		Pruned: w.Pruned, Deduped: w.Deduped, Infeasible: w.Infeasible,
		FirstFailureCandidate: w.FirstFailureCandidate}
	if len(w.FirstFailure) > 0 {
		var legacy string
		if err := json.Unmarshal(w.FirstFailure, &legacy); err == nil {
			b.FirstFailure = errors.New(legacy)
			return nil
		}
		fe := new(Error)
		if err := fe.UnmarshalJSON(w.FirstFailure); err != nil {
			return fmt.Errorf("actuary: decoding sweep-best failure: %w", err)
		}
		b.FirstFailure = fe
	}
	return nil
}

// wireSearchBest is the canonical JSON shape of a search-best answer.
type wireSearchBest struct {
	Top   []SweepPoint `json:"top"`
	Stats SearchStats  `json:"stats"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (b SearchBest) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireSearchBest{Top: b.Top, Stats: b.Stats})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
func (b *SearchBest) UnmarshalJSON(data []byte) error {
	var w wireSearchBest
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding search-best: %w", err)
	}
	*b = SearchBest{Top: w.Top, Stats: w.Stats}
	return nil
}

// wireResult is the canonical JSON shape of a Result: the request
// echo, exactly one payload field on success, or a structured error.
type wireResult struct {
	Index      int              `json:"index"`
	ID         string           `json:"id,omitempty"`
	Question   Question         `json:"question"`
	TotalCost  *TotalCost       `json:"total_cost,omitempty"`
	RE         *REBreakdown     `json:"re,omitempty"`
	Wafers     *WaferDemand     `json:"wafers,omitempty"`
	Quantity   float64          `json:"quantity,omitempty"`
	AreaMM2    float64          `json:"area_mm2,omitempty"`
	Points     []PartitionPoint `json:"points,omitempty"`
	Best       int              `json:"best,omitempty"`
	SweepBest  *SweepBest       `json:"sweep_best,omitempty"`
	SearchBest *SearchBest      `json:"search_best,omitempty"`
	Error      *Error           `json:"error,omitempty"`
}

// WireError lifts an arbitrary result error into the structured form
// the wire carries: a *Error passes through, anything else is
// classified and wrapped in place.
func WireError(r Result) *Error {
	if r.Err == nil {
		return nil
	}
	if ae, ok := AsError(r.Err); ok {
		return ae
	}
	return &Error{Code: classify(r.Err), Index: r.Index, ID: r.ID,
		Question: r.Question, Err: r.Err}
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireResult{
		Index: r.Index, ID: r.ID, Question: r.Question,
		TotalCost: r.TotalCost, RE: r.RE, Wafers: r.Wafers,
		Quantity: r.Quantity, AreaMM2: r.AreaMM2,
		Points: r.Points, Best: r.Best, SweepBest: r.SweepBest,
		SearchBest: r.SearchBest,
		Error:      WireError(r),
	})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w wireResult
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding result: %w", err)
	}
	res := Result{
		Index: w.Index, ID: w.ID, Question: w.Question,
		TotalCost: w.TotalCost, RE: w.RE, Wafers: w.Wafers,
		Quantity: w.Quantity, AreaMM2: w.AreaMM2,
		Points: w.Points, Best: w.Best, SweepBest: w.SweepBest,
		SearchBest: w.SearchBest,
	}
	if w.Error != nil {
		res.Err = w.Error
	}
	*r = res
	return nil
}

// Checkpoint wire forms. A checkpoint is the versioned canonical JSON
// snapshot of a partially drained sweep: enough state to continue the
// walk on another process — or another host — and still produce output
// byte-identical to an uninterrupted run. Five forms exist (the
// Checkpoint type set): SweepCheckpoint (a single sweep-best walk),
// SearchCheckpoint (an adaptive search walk), StreamCheckpoint (a
// scenario result stream reduced through the online aggregators),
// FleetStreamCheckpoint (a striped stream: merged cursor plus one
// cursor per shard) and CoordinatorCheckpoint (per-shard progress of
// a sharded sweep). All five carry CheckpointVersion and a workload
// fingerprint (the fleet stream form in its merged and per-shard
// cursors); decode rejects unknown fields, and a version or
// fingerprint mismatch fails loudly instead of resuming the wrong
// sweep.

// CheckpointVersion is the format version stamped on every encoded
// checkpoint. Decoding any other version is an error: a checkpoint is
// a promise of byte-identical resumption, which a best-effort read of
// an unknown format could not keep.
const CheckpointVersion = 1

// checkpointVersionError renders the one error message all five
// checkpoint decoders share.
func checkpointVersionError(kind string, got int) error {
	return fmt.Errorf("actuary: %s checkpoint version %d (this build reads version %d)",
		kind, got, CheckpointVersion)
}

// fingerprintHex hashes a canonical JSON payload into the fingerprint
// string stored in checkpoints.
func fingerprintHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SweepFingerprint returns the stable identity of a sweep-best
// workload: a hash over the canonical JSON of the grid, the
// (normalized) top-K bound, the amortization policy and the shard
// spec. Two requests with equal fingerprints walk the same candidates
// under the same ranking, so a checkpoint from one may seed the other;
// request IDs deliberately stay out of the hash — relabelling a run
// must not orphan its checkpoint.
func SweepFingerprint(req Request) (string, error) {
	if req.Grid == nil {
		return "", fmt.Errorf("actuary: fingerprinting a sweep-best request needs a Grid")
	}
	k := req.TopK
	if k < 1 {
		k = 1
	}
	payload := struct {
		Grid       *SweepGrid         `json:"grid"`
		TopK       int                `json:"top_k"`
		Policy     AmortizationPolicy `json:"policy"`
		ShardIndex int                `json:"shard_index,omitempty"`
		ShardCount int                `json:"shard_count,omitempty"`
	}{req.Grid, k, req.Policy, req.ShardIndex, req.ShardCount}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("actuary: fingerprinting sweep grid %q: %w", req.Grid.Name, err)
	}
	return fingerprintHex(data), nil
}

// wireSweepCheckpoint is the canonical JSON shape of a SweepCheckpoint.
// The first failure crosses in the structured error form, exactly like
// a SweepBest payload.
type wireSweepCheckpoint struct {
	Version               int             `json:"version"`
	Fingerprint           string          `json:"fingerprint"`
	Cursor                SweepCursor     `json:"cursor"`
	Top                   []SweepPoint    `json:"top,omitempty"`
	Pareto                []SweepPoint    `json:"pareto,omitempty"`
	Summary               SweepSummary    `json:"summary"`
	Infeasible            int             `json:"infeasible,omitempty"`
	FirstFailure          json.RawMessage `json:"first_failure,omitempty"`
	FirstFailureCandidate int             `json:"first_failure_candidate,omitempty"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c SweepCheckpoint) MarshalJSON() ([]byte, error) {
	w := wireSweepCheckpoint{Version: CheckpointVersion, Fingerprint: c.Fingerprint,
		Cursor: c.Cursor, Top: c.Top, Pareto: c.Pareto, Summary: c.Summary,
		Infeasible: c.Infeasible, FirstFailureCandidate: c.FirstFailureCandidate}
	if fe := wireFirstFailure(c.FirstFailure); fe != nil {
		data, err := json.Marshal(fe)
		if err != nil {
			return nil, fmt.Errorf("actuary: encoding checkpoint failure: %w", err)
		}
		w.FirstFailure = data
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and any version this build does not read.
func (c *SweepCheckpoint) UnmarshalJSON(data []byte) error {
	var w wireSweepCheckpoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding sweep checkpoint: %w", err)
	}
	if w.Version != CheckpointVersion {
		return checkpointVersionError("sweep", w.Version)
	}
	*c = SweepCheckpoint{Fingerprint: w.Fingerprint, Cursor: w.Cursor,
		Top: w.Top, Pareto: w.Pareto, Summary: w.Summary,
		Infeasible: w.Infeasible, FirstFailureCandidate: w.FirstFailureCandidate}
	if len(w.FirstFailure) > 0 {
		fe := new(Error)
		if err := fe.UnmarshalJSON(w.FirstFailure); err != nil {
			return fmt.Errorf("actuary: decoding checkpoint failure: %w", err)
		}
		c.FirstFailure = fe
	}
	return nil
}

// SearchFingerprint returns the stable identity of a search-best
// workload: a hash over the canonical JSON of the grid, the
// (normalized) top-K bound, the amortization policy, the shard spec
// and the (resolved) search spec. The spec participates because two
// searches of the same grid under different strategies walk different
// candidates — a checkpoint from one must not seed the other. Request
// IDs stay out of the hash, as in SweepFingerprint.
func SearchFingerprint(req Request) (string, error) {
	if req.Grid == nil {
		return "", fmt.Errorf("actuary: fingerprinting a search-best request needs a Grid")
	}
	k := req.TopK
	if k < 1 {
		k = 1
	}
	spec := resolveSearchSpec(req)
	payload := struct {
		Grid       *SweepGrid         `json:"grid"`
		TopK       int                `json:"top_k"`
		Policy     AmortizationPolicy `json:"policy"`
		ShardIndex int                `json:"shard_index,omitempty"`
		ShardCount int                `json:"shard_count,omitempty"`
		Search     SearchSpec         `json:"search"`
	}{req.Grid, k, req.Policy, req.ShardIndex, req.ShardCount, spec}
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("actuary: fingerprinting search grid %q: %w", req.Grid.Name, err)
	}
	return fingerprintHex(data), nil
}

// wireSearchCheckpoint is the canonical JSON shape of a
// SearchCheckpoint. The planner crosses as the search package's own
// JSON form; the first failure crosses in the structured error form,
// exactly like a SweepBest payload.
type wireSearchCheckpoint struct {
	Version               int               `json:"version"`
	Fingerprint           string            `json:"fingerprint"`
	Planner               *search.Planner   `json:"planner"`
	Cursor                SweepCursor       `json:"cursor"`
	Totals                SweepStats        `json:"totals"`
	Top                   []SweepPoint      `json:"top,omitempty"`
	Pareto                []SweepPoint      `json:"pareto,omitempty"`
	Infeasible            int               `json:"infeasible,omitempty"`
	FirstFailure          json.RawMessage   `json:"first_failure,omitempty"`
	FirstFailureCandidate int               `json:"first_failure_candidate,omitempty"`
	SlabBest              []wireSlabScore   `json:"slab_best,omitempty"`
	Trajectory            []SearchIncumbent `json:"trajectory,omitempty"`
}

// wireSlabScore is the canonical JSON shape of a SearchSlabScore.
type wireSlabScore struct {
	Slab int     `json:"slab"`
	Cost float64 `json:"cost"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c SearchCheckpoint) MarshalJSON() ([]byte, error) {
	w := wireSearchCheckpoint{Version: CheckpointVersion, Fingerprint: c.Fingerprint,
		Planner: c.Planner, Cursor: c.Cursor, Totals: c.Totals,
		Top: c.Top, Pareto: c.Pareto, Infeasible: c.Infeasible,
		FirstFailureCandidate: c.FirstFailureCandidate, Trajectory: c.Trajectory}
	for _, sb := range c.SlabBest {
		w.SlabBest = append(w.SlabBest, wireSlabScore(sb))
	}
	if fe := wireFirstFailure(c.FirstFailure); fe != nil {
		data, err := json.Marshal(fe)
		if err != nil {
			return nil, fmt.Errorf("actuary: encoding search checkpoint failure: %w", err)
		}
		w.FirstFailure = data
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields,
// unknown versions, and planners no search could have serialized.
func (c *SearchCheckpoint) UnmarshalJSON(data []byte) error {
	var w wireSearchCheckpoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding search checkpoint: %w", err)
	}
	if w.Version != CheckpointVersion {
		return checkpointVersionError("search", w.Version)
	}
	if w.Planner == nil {
		return fmt.Errorf("actuary: search checkpoint carries no planner")
	}
	if err := w.Planner.Validate(); err != nil {
		return fmt.Errorf("actuary: decoding search checkpoint: %w", err)
	}
	out := SearchCheckpoint{Fingerprint: w.Fingerprint, Planner: w.Planner,
		Cursor: w.Cursor, Totals: w.Totals, Top: w.Top, Pareto: w.Pareto,
		Infeasible: w.Infeasible, FirstFailureCandidate: w.FirstFailureCandidate,
		Trajectory: w.Trajectory}
	for _, sb := range w.SlabBest {
		out.SlabBest = append(out.SlabBest, SearchSlabScore(sb))
	}
	if len(w.FirstFailure) > 0 {
		fe := new(Error)
		if err := fe.UnmarshalJSON(w.FirstFailure); err != nil {
			return fmt.Errorf("actuary: decoding search checkpoint failure: %w", err)
		}
		out.FirstFailure = fe
	}
	*c = out
	return nil
}

// wireCostTopK is the canonical JSON shape of a CostTopK snapshot:
// the bound, the observation count, and the retained results cheapest
// first.
type wireCostTopK struct {
	K       int      `json:"k"`
	Seen    int      `json:"seen"`
	Results []Result `json:"results,omitempty"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c *CostTopK) MarshalJSON() ([]byte, error) {
	st := c.top.State()
	return json.Marshal(wireCostTopK{K: st.K, Seen: st.Seen, Results: st.Items})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and states a live selector could not have produced.
func (c *CostTopK) UnmarshalJSON(data []byte) error {
	var w wireCostTopK
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding top-k state: %w", err)
	}
	for _, r := range w.Results {
		if r.Err != nil || r.TotalCost == nil {
			return fmt.Errorf("actuary: top-k state retains result %q without a total cost", r.ID)
		}
	}
	rebuilt := NewCostTopK(w.K)
	if err := rebuilt.top.SetState(sweep.TopKState[Result]{K: w.K, Seen: w.Seen, Items: w.Results}); err != nil {
		return fmt.Errorf("actuary: %w", err)
	}
	*c = *rebuilt
	return nil
}

// wireCostPareto is the canonical JSON shape of a CostPareto snapshot.
type wireCostPareto struct {
	Seen  int      `json:"seen"`
	Front []Result `json:"front,omitempty"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c *CostPareto) MarshalJSON() ([]byte, error) {
	st := c.front.State()
	return json.Marshal(wireCostPareto{Seen: st.Seen, Front: st.Front})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and states a live front could not have produced.
func (c *CostPareto) UnmarshalJSON(data []byte) error {
	var w wireCostPareto
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding pareto state: %w", err)
	}
	for _, r := range w.Front {
		if r.Err != nil || r.TotalCost == nil {
			return fmt.Errorf("actuary: pareto state fronts result %q without a total cost", r.ID)
		}
	}
	rebuilt := NewCostPareto()
	if err := rebuilt.front.SetState(sweep.ParetoState[Result]{Seen: w.Seen, Front: w.Front}); err != nil {
		return fmt.Errorf("actuary: %w", err)
	}
	*c = *rebuilt
	return nil
}

// wireStreamStats is the canonical JSON shape of StreamStats.
type wireStreamStats struct {
	OK      int          `json:"ok"`
	Failed  int          `json:"failed,omitempty"`
	Skipped int          `json:"skipped,omitempty"`
	Cost    SweepSummary `json:"cost"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (s StreamStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireStreamStats{OK: s.OK, Failed: s.Failed, Skipped: s.Skipped, Cost: s.Cost})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields.
func (s *StreamStats) UnmarshalJSON(data []byte) error {
	var w wireStreamStats
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding stream stats: %w", err)
	}
	*s = StreamStats{OK: w.OK, Failed: w.Failed, Skipped: w.Skipped, Cost: w.Cost}
	return nil
}

// wireStreamCheckpoint is the canonical JSON shape of a
// StreamCheckpoint. The aggregators are optional — a consumer that
// only tracks, say, stats persists only what it uses.
type wireStreamCheckpoint struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	Next        int          `json:"next"`
	TopK        *CostTopK    `json:"top_k,omitempty"`
	Pareto      *CostPareto  `json:"pareto,omitempty"`
	Stats       *StreamStats `json:"stats,omitempty"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c StreamCheckpoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireStreamCheckpoint{Version: CheckpointVersion,
		Fingerprint: c.Fingerprint, Next: c.Next,
		TopK: c.TopK, Pareto: c.Pareto, Stats: c.Stats})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and any version this build does not read.
func (c *StreamCheckpoint) UnmarshalJSON(data []byte) error {
	var w wireStreamCheckpoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding stream checkpoint: %w", err)
	}
	if w.Version != CheckpointVersion {
		return checkpointVersionError("stream", w.Version)
	}
	if w.Next < 0 {
		return fmt.Errorf("actuary: stream checkpoint resumes at negative index %d", w.Next)
	}
	*c = StreamCheckpoint{Fingerprint: w.Fingerprint, Next: w.Next,
		TopK: w.TopK, Pareto: w.Pareto, Stats: w.Stats}
	return nil
}

// wireFleetStreamCheckpoint is the canonical JSON shape of a
// FleetStreamCheckpoint.
type wireFleetStreamCheckpoint struct {
	Version int                `json:"version"`
	Merged  *StreamCheckpoint  `json:"merged"`
	Shards  int                `json:"shards"`
	Cursors []StreamCheckpoint `json:"cursors"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c FleetStreamCheckpoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireFleetStreamCheckpoint{Version: CheckpointVersion,
		Merged: c.Merged, Shards: c.Shards, Cursors: c.Cursors})
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown
// fields, unknown versions, and cursor sets no coordinator could have
// recorded (see Validate).
func (c *FleetStreamCheckpoint) UnmarshalJSON(data []byte) error {
	var w wireFleetStreamCheckpoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding fleet stream checkpoint: %w", err)
	}
	if w.Version != CheckpointVersion {
		return checkpointVersionError("fleet stream", w.Version)
	}
	out := FleetStreamCheckpoint{Merged: w.Merged, Shards: w.Shards, Cursors: w.Cursors}
	if err := out.Validate(); err != nil {
		return err
	}
	*c = out
	return nil
}

// wireCoordinatorCheckpoint is the canonical JSON shape of a
// CoordinatorCheckpoint.
type wireCoordinatorCheckpoint struct {
	Version     int               `json:"version"`
	Fingerprint string            `json:"fingerprint"`
	Shards      int               `json:"shards"`
	Completed   []wireShardResult `json:"completed,omitempty"`
}

// wireShardResult pairs a drained shard's index with its answer.
type wireShardResult struct {
	Shard int        `json:"shard"`
	Best  *SweepBest `json:"best"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (c CoordinatorCheckpoint) MarshalJSON() ([]byte, error) {
	w := wireCoordinatorCheckpoint{Version: CheckpointVersion,
		Fingerprint: c.Fingerprint, Shards: c.Shards}
	for _, sr := range c.Completed {
		w.Completed = append(w.Completed, wireShardResult(sr))
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown
// fields, unknown versions, and shard sets no coordinator could have
// recorded (out-of-range indexes, duplicates, answers missing).
func (c *CoordinatorCheckpoint) UnmarshalJSON(data []byte) error {
	var w wireCoordinatorCheckpoint
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding coordinator checkpoint: %w", err)
	}
	if w.Version != CheckpointVersion {
		return checkpointVersionError("coordinator", w.Version)
	}
	out := CoordinatorCheckpoint{Fingerprint: w.Fingerprint, Shards: w.Shards}
	for _, sr := range w.Completed {
		out.Completed = append(out.Completed, ShardResult(sr))
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*c = out
	return nil
}

// ErrorBody is the JSON envelope of a transport-level HTTP failure —
// a malformed body, an oversized payload, a scenario that does not
// compile. Per-request evaluation failures never use it; they travel
// inside Result.error with HTTP 200. Defined here so server and
// client share one shape.
type ErrorBody struct {
	Error ErrorBodyDetail `json:"error"`
}

// ErrorBodyDetail carries the classified code (an ErrorCode string
// form) and the human-readable message.
type ErrorBodyDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// DecodeRequests strictly decodes a JSON array of wire requests, the
// body of POST /v1/evaluate.
func DecodeRequests(data []byte) ([]Request, error) {
	var reqs []Request
	if err := wirejson.UnmarshalStrict(data, &reqs); err != nil {
		return nil, fmt.Errorf("actuary: decoding request batch: %w", err)
	}
	return reqs, nil
}

// DecodeResults strictly decodes a JSON array of wire results, the
// body of a /v1/evaluate response.
func DecodeResults(data []byte) ([]Result, error) {
	var results []Result
	if err := wirejson.UnmarshalStrict(data, &results); err != nil {
		return nil, fmt.Errorf("actuary: decoding result batch: %w", err)
	}
	return results, nil
}

// MetricsSnapshot is the GET /v1/metricz payload: the session's
// back-pressure counters, worker pool width and KGD cache counters
// as one canonical-JSON document — the programmatic face of the
// Prometheus text GET /metrics serves, and the preferred probe of
// fleet.Monitor.
type MetricsSnapshot struct {
	// Session is the back-pressure snapshot (Session.Metrics).
	Session SessionMetrics
	// Workers is the pool's width (Session.Workers).
	Workers int
	// Cache is the shared KGD cache's counters (Session.CacheStats).
	Cache KGDCacheStats
}

// wireMetricsSnapshot is the canonical JSON shape of a
// MetricsSnapshot: snake_case, durations as integer nanoseconds,
// questions by name.
type wireMetricsSnapshot struct {
	Workers           int                   `json:"workers"`
	StreamsStarted    int64                 `json:"streams_started"`
	StreamsCompleted  int64                 `json:"streams_completed"`
	QueueDepth        int64                 `json:"queue_depth"`
	QueueDepthMax     int64                 `json:"queue_depth_max"`
	QueueDepthSamples int64                 `json:"queue_depth_samples"`
	QueueDepthSum     int64                 `json:"queue_depth_sum"`
	InFlight          int64                 `json:"in_flight"`
	InFlightMax       int64                 `json:"in_flight_max"`
	WorkerBusyNS      int64                 `json:"worker_busy_ns"`
	WorkerTimeNS      int64                 `json:"worker_time_ns"`
	PerQuestion       []wireQuestionMetrics `json:"per_question,omitempty"`
	CacheHits         int64                 `json:"cache_hits"`
	CacheMisses       int64                 `json:"cache_misses"`
	CacheEntries      int                   `json:"cache_entries"`
}

// wireQuestionMetrics is the canonical JSON shape of one question's
// latency profile.
type wireQuestionMetrics struct {
	Question Question `json:"question"`
	Count    int64    `json:"count"`
	Failures int64    `json:"failures,omitempty"`
	TotalNS  int64    `json:"total_ns"`
	MaxNS    int64    `json:"max_ns"`
}

// MarshalJSON implements json.Marshaler with snake_case field names.
func (m MetricsSnapshot) MarshalJSON() ([]byte, error) {
	w := wireMetricsSnapshot{
		Workers:           m.Workers,
		StreamsStarted:    m.Session.StreamsStarted,
		StreamsCompleted:  m.Session.StreamsCompleted,
		QueueDepth:        m.Session.QueueDepth,
		QueueDepthMax:     m.Session.QueueDepthMax,
		QueueDepthSamples: m.Session.QueueDepthSamples,
		QueueDepthSum:     m.Session.QueueDepthSum,
		InFlight:          m.Session.InFlight,
		InFlightMax:       m.Session.InFlightMax,
		WorkerBusyNS:      int64(m.Session.WorkerBusy),
		WorkerTimeNS:      int64(m.Session.WorkerTime),
		CacheHits:         m.Cache.Hits,
		CacheMisses:       m.Cache.Misses,
		CacheEntries:      m.Cache.Entries,
	}
	for _, q := range m.Session.PerQuestion {
		w.PerQuestion = append(w.PerQuestion, wireQuestionMetrics{
			Question: q.Question, Count: q.Count, Failures: q.Failures,
			TotalNS: int64(q.TotalLatency), MaxNS: int64(q.MaxLatency)})
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, rejecting unknown fields
// and counters no session could have recorded (negative values) —
// schema drift or a corrupted probe response surfaces as an error,
// not as a nonsense health score.
func (m *MetricsSnapshot) UnmarshalJSON(data []byte) error {
	var w wireMetricsSnapshot
	if err := wirejson.UnmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("actuary: decoding metrics snapshot: %w", err)
	}
	for _, v := range []int64{int64(w.Workers), w.StreamsStarted, w.StreamsCompleted,
		w.QueueDepth, w.QueueDepthMax, w.QueueDepthSamples, w.QueueDepthSum,
		w.InFlight, w.InFlightMax, w.WorkerBusyNS, w.WorkerTimeNS,
		w.CacheHits, w.CacheMisses, int64(w.CacheEntries)} {
		if v < 0 {
			return fmt.Errorf("actuary: metrics snapshot carries a negative counter")
		}
	}
	out := MetricsSnapshot{
		Workers: w.Workers,
		Session: SessionMetrics{
			StreamsStarted:    w.StreamsStarted,
			StreamsCompleted:  w.StreamsCompleted,
			QueueDepth:        w.QueueDepth,
			QueueDepthMax:     w.QueueDepthMax,
			QueueDepthSamples: w.QueueDepthSamples,
			QueueDepthSum:     w.QueueDepthSum,
			InFlight:          w.InFlight,
			InFlightMax:       w.InFlightMax,
			WorkerBusy:        time.Duration(w.WorkerBusyNS),
			WorkerTime:        time.Duration(w.WorkerTimeNS),
		},
		Cache: KGDCacheStats{Hits: w.CacheHits, Misses: w.CacheMisses, Entries: w.CacheEntries},
	}
	for _, q := range w.PerQuestion {
		if q.Count < 0 || q.Failures < 0 || q.TotalNS < 0 || q.MaxNS < 0 {
			return fmt.Errorf("actuary: metrics snapshot carries a negative counter")
		}
		out.Session.PerQuestion = append(out.Session.PerQuestion, QuestionMetrics{
			Question: q.Question, Count: q.Count, Failures: q.Failures,
			TotalLatency: time.Duration(q.TotalNS), MaxLatency: time.Duration(q.MaxNS)})
	}
	*m = out
	return nil
}

// MetricsSnapshotNow assembles the live snapshot of a session — the
// document /v1/metricz serves.
func MetricsSnapshotNow(s *Session) MetricsSnapshot {
	return MetricsSnapshot{Session: s.Metrics(), Workers: s.Workers(), Cache: s.CacheStats()}
}
