package actuary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"chipletactuary/internal/dtod"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/sweep"
	"chipletactuary/internal/system"
)

// SystemConfig is the JSON description of a system consumed by
// cmd/actuary and usable programmatically. Example:
//
//	{
//	  "name": "server-cpu",
//	  "scheme": "MCM",
//	  "quantity": 2000000,
//	  "chiplets": [
//	    {"name": "ccd", "node": "7nm", "module_area_mm2": 67, "d2d_fraction": 0.10, "count": 8},
//	    {"name": "iod", "node": "12nm", "module_area_mm2": 374, "d2d_fraction": 0.10, "count": 1}
//	  ]
//	}
type SystemConfig struct {
	Name     string          `json:"name"`
	Scheme   string          `json:"scheme"`
	Flow     string          `json:"flow,omitempty"` // "chip-last" (default) or "chip-first"
	Quantity float64         `json:"quantity"`
	Chiplets []ChipletConfig `json:"chiplets"`
}

// ChipletConfig describes one chiplet design and its multiplicity.
type ChipletConfig struct {
	Name          string  `json:"name"`
	Node          string  `json:"node"`
	ModuleAreaMM2 float64 `json:"module_area_mm2"`
	D2DFraction   float64 `json:"d2d_fraction,omitempty"`
	Count         int     `json:"count"`
}

// ReadSystemConfig parses a system description from r.
func ReadSystemConfig(r io.Reader) (SystemConfig, error) {
	var cfg SystemConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return SystemConfig{}, fmt.Errorf("actuary: decoding system config: %w", err)
	}
	return cfg, nil
}

// LoadSystemConfig reads a system description from a JSON file.
func LoadSystemConfig(path string) (SystemConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return SystemConfig{}, fmt.Errorf("actuary: %w", err)
	}
	defer f.Close()
	return ReadSystemConfig(f)
}

// PortfolioConfig is the JSON description of a family of systems that
// share chiplet/module/package designs — the Eq. (7)/(8) accounting.
// Chiplets with the same name across systems are one design; systems
// naming the same "package" share one package design (an envelope
// sized for the largest member is derived automatically).
type PortfolioConfig struct {
	Name    string         `json:"name"`
	Systems []SystemConfig `json:"systems"`
	// SharedPackage, when non-empty, mounts every system in one
	// package design of that name, sized for the largest member.
	SharedPackage string `json:"shared_package,omitempty"`
}

// ReadPortfolioConfig parses a portfolio description from r.
func ReadPortfolioConfig(r io.Reader) (PortfolioConfig, error) {
	var cfg PortfolioConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return PortfolioConfig{}, fmt.Errorf("actuary: decoding portfolio config: %w", err)
	}
	return cfg, nil
}

// LoadPortfolioConfig reads a portfolio description from a JSON file.
func LoadPortfolioConfig(path string) (PortfolioConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return PortfolioConfig{}, fmt.Errorf("actuary: %w", err)
	}
	defer f.Close()
	return ReadPortfolioConfig(f)
}

// Build converts the portfolio configuration into systems ready for
// Actuary.Portfolio. The packaging parameters are needed to size a
// shared package envelope.
func (c PortfolioConfig) Build(params PackagingParams) ([]System, error) {
	if len(c.Systems) == 0 {
		return nil, fmt.Errorf("actuary: portfolio %q has no systems", c.Name)
	}
	systems := make([]System, 0, len(c.Systems))
	var maxDie float64
	var anyInterposer bool
	for _, sc := range c.Systems {
		s, err := sc.Build()
		if err != nil {
			return nil, err
		}
		if area := s.TotalDieArea(); area > maxDie {
			maxDie = area
		}
		if s.Scheme.HasInterposer() {
			anyInterposer = true
		}
		systems = append(systems, s)
	}
	if c.SharedPackage != "" {
		env := &Envelope{
			Name:         c.SharedPackage,
			FootprintMM2: maxDie * params.DieSpacingFactor,
		}
		if anyInterposer {
			env.InterposerAreaMM2 = maxDie * params.InterposerFill
		}
		for i := range systems {
			if systems[i].Scheme == SoC {
				return nil, fmt.Errorf("actuary: portfolio %q: SoC system %q cannot share a multi-chip package",
					c.Name, systems[i].Name)
			}
			systems[i].Envelope = env
		}
	}
	return systems, nil
}

// ScenarioConfig is the v2 JSON schema consumed by cmd/actuary's
// -scenario flag and by Session callers: several explicit systems,
// declarative partition sweeps, and a selection of questions to ask
// about each of them, all compiled to one Session.Evaluate batch.
// Example:
//
//	{
//	  "version": 2,
//	  "name": "server-roadmap",
//	  "questions": ["total-cost", "wafers"],
//	  "systems": [ ...v1 system objects... ],
//	  "sweeps": [
//	    {"name": "compute", "node": "5nm", "scheme": "MCM", "d2d_fraction": 0.10,
//	     "quantity": 2000000, "areas_mm2": [400, 800], "counts": [1, 2, 4]}
//	  ]
//	}
//
// A v1 SystemConfig document (recognized by its "chiplets" field) is
// still accepted by ReadScenarioConfig and treated as a one-system
// scenario asking the default question.
type ScenarioConfig struct {
	// Version is the schema version: 0 (unset) and 2 mean this schema,
	// 1 marks a wrapped v1 SystemConfig.
	Version int `json:"version,omitempty"`
	// Name labels the scenario.
	Name string `json:"name"`
	// Questions selects what to ask (see ParseQuestion); the default
	// is ["total-cost"]. Sweep-only questions (crossover-quantity,
	// optimal-chiplet-count, area-crossover) are ignored for the
	// explicit Systems, which carry no sweep geometry.
	Questions []string `json:"questions,omitempty"`
	// Policy is the NRE amortization policy: "per-system-unit"
	// (default) or "per-instance".
	Policy string `json:"policy,omitempty"`
	// Systems are explicit v1 system descriptions.
	Systems []SystemConfig `json:"systems,omitempty"`
	// Sweeps declare families of equal partitions to generate.
	Sweeps []SweepConfig `json:"sweeps,omitempty"`
	// ShardIndex and ShardCount restrict the compiled request stream to
	// shard ShardIndex of ShardCount (0 ≤ ShardIndex < ShardCount;
	// count 0 means unsharded). Per-point sweep questions partition at
	// the grid-candidate level (each design point is generated by
	// exactly one shard, pruning statistics preserved per shard);
	// explicit systems and the derived sweep questions are dealt
	// round-robin; a sweep-best question is answered by every shard,
	// each result carrying the shard spec, so the partial answers merge
	// into the whole-grid answer (see SweepBestMerger). The ShardCount
	// streams of a scenario together cover exactly the unsharded
	// stream. POST /v1/stream honors the spec, which is how the
	// distribute coordinator fans one scenario across daemons.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Resume requests resumable delivery: results are emitted in
	// source-index order (instead of completion order) starting at
	// Resume.NextIndex, with the skipped prefix regenerated but never
	// re-evaluated. POST /v1/stream honors it — an interrupted NDJSON
	// response continues, byte-identical, from the last line the client
	// durably received — and client.Local mirrors the semantics
	// in-process. A fresh stream that wants to be resumable later asks
	// for {"next_index": 0} up front, so every line's position is
	// meaningful. Resume is delivery configuration, not workload: it
	// stays out of Fingerprint, and Source() ignores it.
	Resume *StreamResume `json:"resume,omitempty"`
}

// StreamResume is the resume point of a scenario stream request.
type StreamResume struct {
	// NextIndex is the stream index of the first result to deliver —
	// the count of results already durably received (NDJSON lines, or
	// StreamCheckpoint.Next).
	NextIndex int `json:"next_index"`
}

// SweepConfig declares a grid of equal-partition design points: every
// (node, scheme, quantity, area, count) combination becomes one
// system, monolithic when count is 1. Axes may be given as singular
// fields (node, scheme, quantity), explicit lists (nodes, schemes,
// quantities, areas_mm2, counts) or inclusive ranges (area_range,
// count_range); grids expand lazily, so a sweep may declare far more
// points than would fit in memory as a request slice.
type SweepConfig struct {
	// Name prefixes the generated request IDs.
	Name string `json:"name"`
	// Node is the process node of every point; Nodes sweeps several.
	// Exactly one of the two must be set.
	Node  string   `json:"node,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
	// Scheme is the multi-chip integration scheme ("MCM", "InFO",
	// "2.5D") used for counts above 1; Schemes sweeps several.
	Scheme  string   `json:"scheme,omitempty"`
	Schemes []string `json:"schemes,omitempty"`
	// D2DFraction sizes the die-to-die interface of multi-chip points
	// as a fraction of die area, in [0, 1).
	D2DFraction float64 `json:"d2d_fraction,omitempty"`
	// Quantity is the production volume of every point; Quantities
	// sweeps several.
	Quantity   float64   `json:"quantity,omitempty"`
	Quantities []float64 `json:"quantities,omitempty"`
	// AreasMM2 are the total module areas to sweep; AreaRange appends
	// an inclusive stepped range. At least one must be non-empty.
	AreasMM2  []float64        `json:"areas_mm2,omitempty"`
	AreaRange *AreaRangeConfig `json:"area_range,omitempty"`
	// Counts are the partition counts to sweep; CountRange appends an
	// inclusive range. At least one must be non-empty.
	Counts     []int             `json:"counts,omitempty"`
	CountRange *CountRangeConfig `json:"count_range,omitempty"`
	// MaxK bounds optimal-chiplet-count requests; the default is the
	// largest entry of the count axis.
	MaxK int `json:"max_k,omitempty"`
	// LoMM2 and HiMM2 bracket area-crossover requests; both must be
	// set when that question is selected.
	LoMM2 float64 `json:"lo_mm2,omitempty"`
	HiMM2 float64 `json:"hi_mm2,omitempty"`
	// TopK bounds the best-point list of sweep-best and search-best
	// requests (default 1).
	TopK int `json:"top_k,omitempty"`
	// Search configures search-best requests (strategy, budget,
	// tolerance); nil means lower-bound pruning only, which keeps the
	// answer exhaustive-exact. Ignored by every other question.
	Search *SearchSpec `json:"search,omitempty"`
	// Prune drops reticle-infeasible points before evaluation instead
	// of reporting their infeasibility errors. Sweep-best requests
	// always prune.
	Prune bool `json:"prune,omitempty"`
}

// AreaRangeConfig is an inclusive stepped module-area range.
type AreaRangeConfig struct {
	LoMM2   float64 `json:"lo_mm2"`
	HiMM2   float64 `json:"hi_mm2"`
	StepMM2 float64 `json:"step_mm2"`
}

// CountRangeConfig is an inclusive partition-count range.
type CountRangeConfig struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ReadScenarioConfig parses a scenario from r, accepting both the v2
// schema and a bare v1 SystemConfig document.
func ReadScenarioConfig(r io.Reader) (ScenarioConfig, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return ScenarioConfig{}, fmt.Errorf("actuary: reading scenario config: %w", err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return ScenarioConfig{}, fmt.Errorf("actuary: decoding scenario config: %w", err)
	}
	if _, isV1 := probe["chiplets"]; isV1 {
		sc, err := ReadSystemConfig(bytes.NewReader(data))
		if err != nil {
			return ScenarioConfig{}, err
		}
		return ScenarioConfig{Version: 1, Name: sc.Name, Systems: []SystemConfig{sc}}, nil
	}
	var cfg ScenarioConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return ScenarioConfig{}, fmt.Errorf("actuary: decoding scenario config: %w", err)
	}
	if cfg.Version != 0 && cfg.Version != 2 {
		return ScenarioConfig{}, fmt.Errorf("actuary: unsupported scenario version %d (want 2)", cfg.Version)
	}
	return cfg, nil
}

// LoadScenarioConfig reads a scenario from a JSON file.
func LoadScenarioConfig(path string) (ScenarioConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScenarioConfig{}, fmt.Errorf("actuary: %w", err)
	}
	defer f.Close()
	return ReadScenarioConfig(f)
}

// ParsePolicy converts "per-system-unit" (or "") and "per-instance"
// to an AmortizationPolicy. It delegates to the same parser the wire
// protocol uses, so scenario files and the service speak one
// vocabulary.
func ParsePolicy(name string) (AmortizationPolicy, error) {
	p, err := nre.ParsePolicy(name)
	if err != nil {
		return 0, fmt.Errorf("actuary: unknown policy %q (want per-system-unit or per-instance)", name)
	}
	return p, nil
}

// ResumeIndex returns the validated resume point of the scenario and
// whether resumable (index-ordered) delivery was requested; scenarios
// without a Resume field stream in completion order from index 0.
// Both delivery paths — the server's /v1/stream handler and the
// in-process client.Local backend — route through this one method, so
// a scenario means the same thing whichever backend streams it.
func (c ScenarioConfig) ResumeIndex() (int, bool, error) {
	if c.Resume == nil {
		return 0, false, nil
	}
	if c.Resume.NextIndex < 0 {
		return 0, false, fmt.Errorf("actuary: scenario %q resumes at negative index %d", c.Name, c.Resume.NextIndex)
	}
	return c.Resume.NextIndex, true, nil
}

// Fingerprint returns the stable identity of the scenario workload: a
// hash over the canonical scenario JSON with delivery configuration
// (Resume) stripped and the schema version normalized — 0 (unset) and
// 2 declare the same schema, and 1 is the v1 provenance marker
// client.Stream already rewrites — so the original run and every
// resumption of it agree on the fingerprint a StreamCheckpoint
// carries, however the version field was spelled.
func (c ScenarioConfig) Fingerprint() (string, error) {
	c.Resume = nil
	if c.Version == 0 || c.Version == 1 {
		c.Version = 2
	}
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("actuary: fingerprinting scenario %q: %w", c.Name, err)
	}
	return fingerprintHex(data), nil
}

// Source compiles the scenario into a lazy RequestSource for
// Session.Stream: each selected question is asked of every explicit
// system and every sweep point it applies to, but sweep grids are
// expanded on demand — a million-point sweep costs a few hundred bytes
// of iterator state, not a million Requests. All validation (axes,
// schemes, questions, policy, explicit systems) happens here, before
// the first point is generated. Request IDs are deterministic —
// "<system>/<question>" for systems, "<sweep>-a<area>-k<count>/<question>"
// for sweep points (multi-valued node/scheme/quantity axes add
// segments) — so results can be correlated by ID as well as by index.
func (c ScenarioConfig) Source() (RequestSource, error) {
	if len(c.Systems) == 0 && len(c.Sweeps) == 0 {
		return nil, fmt.Errorf("actuary: scenario %q has no systems and no sweeps", c.Name)
	}
	if err := validShardSpec(c.ShardIndex, c.ShardCount); err != nil {
		return nil, fmt.Errorf("actuary: scenario %q: %w", c.Name, err)
	}
	shard := shardSpec{index: c.ShardIndex, count: c.ShardCount}
	policy, err := ParsePolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	names := c.Questions
	if len(names) == 0 {
		names = []string{"total-cost"}
	}
	questions := make([]Question, len(names))
	for i, n := range names {
		if questions[i], err = ParseQuestion(n); err != nil {
			return nil, err
		}
	}
	systems := make([]System, 0, len(c.Systems))
	for _, sc := range c.Systems {
		s, err := sc.Build()
		if err != nil {
			return nil, err
		}
		systems = append(systems, s)
	}
	sweeps := make([]compiledSweep, 0, len(c.Sweeps))
	for _, sw := range c.Sweeps {
		cs, err := sw.compile(c.Name, questions)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, cs)
	}

	// The request count is known statically (pruning never raises it);
	// reject question/target mismatches before streaming starts.
	total := 0
	for _, q := range questions {
		if perSystemQuestion(q) {
			total += len(systems)
		}
		for _, cs := range sweeps {
			total += cs.size(q)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("actuary: scenario %q compiles to no requests (questions %v fit nothing)",
			c.Name, names)
	}

	// One dealer is shared by every striped stage so round-robin
	// ownership balances across the whole scenario, not per stage. The
	// chain is drained by a single consumer in stage order, so the
	// dealt sequence — and therefore each shard's request set — is
	// deterministic.
	dealer := &stripe{spec: shard}
	stages := []func() RequestSource{systemsStage(systems, questions, policy, dealer)}
	for _, cs := range sweeps {
		for _, q := range questions {
			stages = append(stages, cs.stage(q, policy, shard, dealer))
		}
	}
	return &chainSource{stages: stages}, nil
}

// Requests materializes the scenario into one Session.Evaluate batch
// by draining Source. Prefer Source with Session.Stream for large
// sweeps — this slice grows linearly with the design space.
func (c ScenarioConfig) Requests() ([]Request, error) {
	src, err := c.Source()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	// Source's static count check cannot see pruning; a prune-enabled
	// sweep whose every point is infeasible drains to nothing. One
	// shard of a sharded scenario may legitimately own no requests.
	if len(reqs) == 0 && c.ShardCount == 0 {
		return nil, fmt.Errorf("actuary: scenario %q compiles to no requests (every sweep point pruned)", c.Name)
	}
	return reqs, nil
}

// perSystemQuestion reports whether q is asked of explicit systems
// and of every generated sweep point.
func perSystemQuestion(q Question) bool {
	return q == QuestionTotalCost || q == QuestionRE || q == QuestionWafers
}

// StreamShardPlan is the compiled striping plan of a scenario's
// ordered request stream across count shards: which shard owns each
// stream index, and exactly how many requests each shard serves
// (pruning included — the plan drains the scenario's generation layer
// once, which costs nanoseconds per point and no evaluation).
//
// The plan is what lets a coordinator interleave per-shard streams
// back into the unsharded order: request g of the unsharded stream is
// request k of shard Owners()[g], where k counts the earlier indexes
// owned by the same shard. The owner sequence is a pure function of
// the scenario (the same dealing Source applies under a shard spec),
// so the ShardCount per-shard streams concatenate-by-owner into
// exactly the single-backend stream.
type StreamShardPlan struct {
	count    int
	total    int
	perShard []int
	stages   []ownerStageSpec
}

// ownerStageSpec describes one Source stage for the owner walk:
// either a fixed number of dealer-striped emissions (explicit systems
// and the odometer questions) or a generator walk whose emissions are
// owned by candidate number (the grid-partitioned questions).
type ownerStageSpec struct {
	deals  int
	points func() *SweepGenerator
	skipK1 bool
}

// PlanStreamShards validates that the scenario's stream can be striped
// across count shards and compiles the striping plan. Scenarios asking
// sweep-best or search-best are rejected: every shard answers those
// once (the partial answers merge through SweepBestMerger instead), so
// a striped stream could not reproduce the single-backend stream —
// fan them out with the fleet sweep coordinator. A scenario already
// carrying its own shard spec is rejected too: striping composes the
// shard specs itself.
func (c ScenarioConfig) PlanStreamShards(count int) (*StreamShardPlan, error) {
	if count < 1 {
		return nil, fmt.Errorf("actuary: scenario %q cannot stripe across %d shards", c.Name, count)
	}
	if c.ShardIndex != 0 || c.ShardCount != 0 {
		return nil, fmt.Errorf("actuary: scenario %q already carries shard spec %d/%d; striping derives shard specs itself",
			c.Name, c.ShardIndex, c.ShardCount)
	}
	if len(c.Systems) == 0 && len(c.Sweeps) == 0 {
		return nil, fmt.Errorf("actuary: scenario %q has no systems and no sweeps", c.Name)
	}
	if _, err := ParsePolicy(c.Policy); err != nil {
		return nil, err
	}
	names := c.Questions
	if len(names) == 0 {
		names = []string{"total-cost"}
	}
	questions := make([]Question, len(names))
	for i, n := range names {
		var err error
		if questions[i], err = ParseQuestion(n); err != nil {
			return nil, err
		}
	}
	for _, q := range questions {
		if q == QuestionSweepBest || q == QuestionSearchBest {
			return nil, fmt.Errorf("actuary: scenario %q asks %v, which every shard answers once — a striped stream cannot reproduce the single-backend stream; use the fleet sweep coordinator for it",
				c.Name, q)
		}
	}
	for _, sc := range c.Systems {
		if _, err := sc.Build(); err != nil {
			return nil, err
		}
	}
	sweeps := make([]compiledSweep, 0, len(c.Sweeps))
	for _, sw := range c.Sweeps {
		cs, err := sw.compile(c.Name, questions)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, cs)
	}

	// Mirror Source stage by stage: explicit systems first (dealt),
	// then per sweep, per question. The dealer position is global
	// across dealt stages, exactly as Source's one shared stripe is.
	systemDeals := 0
	for range c.Systems {
		for _, q := range questions {
			if perSystemQuestion(q) {
				systemDeals++
			}
		}
	}
	stages := []ownerStageSpec{{deals: systemDeals}}
	for _, cs := range sweeps {
		for _, q := range questions {
			switch {
			case perSystemQuestion(q), q == QuestionCrossoverQuantity:
				// Grid-partitioned stages: ownership is candidate
				// number mod count, the same dealing Generator.Shard
				// applies. The walk is lean — emission is decided by
				// the scalar axes (ReticleFit reads scalars; the
				// K == 1 skip of crossover-quantity reads the count
				// axis), so no System is ever materialized.
				cs := cs
				stages = append(stages, ownerStageSpec{
					points: func() *SweepGenerator { g := cs.points(); g.Lean(); return g },
					skipK1: q == QuestionCrossoverQuantity,
				})
			case q == QuestionOptimalChipletCount, q == QuestionAreaCrossover:
				// Odometer stages deal every emission round-robin; the
				// emission count is static (area-crossover skips k < 2
				// before dealing, which countsAbove already excludes).
				stages = append(stages, ownerStageSpec{deals: cs.size(q)})
			}
		}
	}
	p := &StreamShardPlan{count: count, perShard: make([]int, count), stages: stages}
	owners := p.Owners()
	for {
		o, ok := owners.Next()
		if !ok {
			break
		}
		p.perShard[o]++
		p.total++
	}
	if p.total == 0 {
		return nil, fmt.Errorf("actuary: scenario %q compiles to no requests (every sweep point pruned)", c.Name)
	}
	return p, nil
}

// Count returns how many shards the plan stripes across.
func (p *StreamShardPlan) Count() int { return p.count }

// Total returns the exact request count of the unsharded stream.
func (p *StreamShardPlan) Total() int { return p.total }

// ShardTotal returns the exact request count shard i serves — the
// stream length a coordinator must receive from shard i before the
// shard counts as drained. A stripe may legitimately own zero
// requests.
func (p *StreamShardPlan) ShardTotal(i int) int { return p.perShard[i] }

// Owners returns a fresh lazy iterator over the owning shard of every
// request of the unsharded ordered stream, in stream order.
func (p *StreamShardPlan) Owners() *StreamShardOwners {
	return &StreamShardOwners{plan: p}
}

// StreamShardOwners lazily walks the owner sequence of a
// StreamShardPlan; see Owners.
type StreamShardOwners struct {
	plan    *StreamShardPlan
	stage   int
	started bool
	// dealt is the global dealer position, shared across every dealt
	// stage (one stripe per Source).
	dealt     int
	remaining int
	gen       *SweepGenerator
	skipK1    bool
}

// Next returns the shard owning the next stream index; false means
// the stream is exhausted.
func (o *StreamShardOwners) Next() (int, bool) {
	for {
		if !o.started {
			if o.stage >= len(o.plan.stages) {
				return 0, false
			}
			sp := o.plan.stages[o.stage]
			o.stage++
			o.remaining = sp.deals
			o.skipK1 = sp.skipK1
			o.gen = nil
			if sp.points != nil {
				o.gen = sp.points()
			}
			o.started = true
		}
		if o.gen != nil {
			p, ok := o.gen.Next()
			if !ok {
				o.started = false
				continue
			}
			if o.skipK1 && p.K == 1 {
				continue
			}
			return o.gen.LastCandidate() % o.plan.count, true
		}
		if o.remaining > 0 {
			o.remaining--
			owner := o.dealt % o.plan.count
			o.dealt++
			return owner, true
		}
		o.started = false
	}
}

// shardSpec is a validated scenario shard selection; count 0 means
// unsharded.
type shardSpec struct{ index, count int }

// active reports whether the spec actually partitions anything.
func (sp shardSpec) active() bool { return sp.count > 1 }

// stripe deals a sequence of requests round-robin across shards: the
// i-th dealt request belongs to shard i mod count. Shared by every
// striped stage of one Source so ownership is a pure function of the
// request's position in the unsharded stream.
type stripe struct {
	spec shardSpec
	next int
}

// owns reports whether the current shard owns the next dealt request.
func (st *stripe) owns() bool {
	if !st.spec.active() {
		return true
	}
	own := st.next%st.spec.count == st.spec.index
	st.next++
	return own
}

// stripedSource filters a source down to the requests the stripe
// deals to this shard.
func stripedSource(src RequestSource, st *stripe) RequestSource {
	return sourceFunc(func() (Request, bool) {
		for {
			r, ok := src.Next()
			if !ok {
				return Request{}, false
			}
			if st.owns() {
				return r, true
			}
		}
	})
}

// chainSource concatenates lazily constructed sub-sources.
type chainSource struct {
	stages []func() RequestSource
	cur    RequestSource
	i      int
}

func (c *chainSource) Next() (Request, bool) {
	for {
		if c.cur == nil {
			if c.i >= len(c.stages) {
				return Request{}, false
			}
			c.cur = c.stages[c.i]()
			c.i++
		}
		if r, ok := c.cur.Next(); ok {
			return r, true
		}
		c.cur = nil
	}
}

// NextSlab implements SlabSource, so scenario streams (including the
// server's /v1/stream) ride slab dispatch. Slabs simply concatenate
// the stage walk — crossing stage boundaries mid-slab is fine because
// a slab is only a dispatch batch, never a semantic unit.
func (c *chainSource) NextSlab(dst []Request) int { return fillSlab(c, dst) }

// systemsStage yields every per-system question of every explicit
// system, in scenario order, dealt through the shard stripe. The
// systems are already materialized (a scenario declares at most a
// handful), so this is a plain slice.
func systemsStage(systems []System, questions []Question, policy AmortizationPolicy, dealer *stripe) func() RequestSource {
	return func() RequestSource {
		var reqs []Request
		for _, s := range systems {
			for _, q := range questions {
				if perSystemQuestion(q) {
					reqs = append(reqs, Request{ID: s.Name + "/" + q.String(), Question: q, System: s, Policy: policy})
				}
			}
		}
		return stripedSource(SliceSource(reqs), dealer)
	}
}

// compiledSweep is a validated SweepConfig: merged axes as a lazy
// grid plus the per-question parameters.
type compiledSweep struct {
	grid   sweep.Grid
	maxK   int
	topK   int
	lo     float64
	hi     float64
	prune  bool
	search *SearchSpec
}

// dedupAxis drops repeated axis values, keeping first-occurrence
// order: overlapping lists and ranges would otherwise emit duplicate
// request IDs and re-evaluate the same points. Deduplication is by
// exact value — a list entry that nearly (but not exactly) matches a
// range step stays a distinct design point, since collapsing close
// values would also destroy deliberately fine-stepped axes.
func dedupAxis[T comparable](xs []T) []T {
	seen := make(map[T]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// compile validates the sweep against the selected questions and
// merges singular fields, lists and ranges into grid axes.
func (s SweepConfig) compile(scenario string, questions []Question) (compiledSweep, error) {
	var cs compiledSweep
	if s.Name == "" {
		return cs, fmt.Errorf("actuary: scenario %q has an unnamed sweep", scenario)
	}
	nodes := s.Nodes
	if s.Node != "" {
		if len(nodes) > 0 {
			return cs, fmt.Errorf("actuary: sweep %q sets both node and nodes", s.Name)
		}
		nodes = []string{s.Node}
	}
	if len(nodes) == 0 {
		return cs, fmt.Errorf("actuary: sweep %q needs a node (or nodes)", s.Name)
	}
	schemeNames := s.Schemes
	if s.Scheme != "" {
		if len(schemeNames) > 0 {
			return cs, fmt.Errorf("actuary: sweep %q sets both scheme and schemes", s.Name)
		}
		schemeNames = []string{s.Scheme}
	}
	if len(schemeNames) == 0 {
		return cs, fmt.Errorf("actuary: sweep %q needs a scheme (or schemes)", s.Name)
	}
	schemes := make([]Scheme, len(schemeNames))
	for i, n := range schemeNames {
		var err error
		if schemes[i], err = packaging.ParseScheme(n); err != nil {
			return cs, fmt.Errorf("actuary: sweep %q: %w", s.Name, err)
		}
	}
	areas := append([]float64(nil), s.AreasMM2...)
	if s.AreaRange != nil {
		expanded, err := sweep.AreaRange(s.AreaRange.LoMM2, s.AreaRange.HiMM2, s.AreaRange.StepMM2)
		if err != nil {
			return cs, fmt.Errorf("actuary: sweep %q: %w", s.Name, err)
		}
		areas = append(areas, expanded...)
	}
	if len(areas) == 0 {
		return cs, fmt.Errorf("actuary: sweep %q needs areas_mm2 and counts (or area_range/count_range)", s.Name)
	}
	counts := append([]int(nil), s.Counts...)
	if s.CountRange != nil {
		expanded, err := sweep.CountRange(s.CountRange.Lo, s.CountRange.Hi)
		if err != nil {
			return cs, fmt.Errorf("actuary: sweep %q: %w", s.Name, err)
		}
		counts = append(counts, expanded...)
	}
	if len(counts) == 0 {
		return cs, fmt.Errorf("actuary: sweep %q needs areas_mm2 and counts (or area_range/count_range)", s.Name)
	}
	if s.D2DFraction < 0 || s.D2DFraction >= 1 {
		return cs, fmt.Errorf("actuary: sweep %q has D2D fraction %v outside [0,1)", s.Name, s.D2DFraction)
	}
	quantities := s.Quantities
	if s.Quantity != 0 {
		if len(quantities) > 0 {
			return cs, fmt.Errorf("actuary: sweep %q sets both quantity and quantities", s.Name)
		}
		quantities = []float64{s.Quantity}
	}
	if len(quantities) == 0 {
		return cs, fmt.Errorf("actuary: sweep %q needs a positive quantity, got %v", s.Name, s.Quantity)
	}
	var d2d D2DOverhead = dtod.None{}
	if s.D2DFraction > 0 {
		d2d = dtod.Fraction{F: s.D2DFraction}
	}
	cs.grid = sweep.Grid{
		Name:       s.Name,
		Nodes:      dedupAxis(nodes),
		Schemes:    dedupAxis(schemes),
		AreasMM2:   dedupAxis(areas),
		Counts:     dedupAxis(counts),
		Quantities: dedupAxis(quantities),
		D2D:        d2d,
	}
	if err := cs.grid.Validate(); err != nil {
		return cs, fmt.Errorf("actuary: sweep %q: %w", s.Name, err)
	}
	cs.maxK = s.MaxK
	if cs.maxK == 0 {
		cs.maxK = cs.grid.MaxCount()
	}
	cs.topK = s.TopK
	cs.lo, cs.hi = s.LoMM2, s.HiMM2
	cs.prune = s.Prune
	cs.search = s.Search
	if s.Search != nil {
		if err := s.Search.Validate(); err != nil {
			return cs, fmt.Errorf("actuary: sweep %q: %w", s.Name, err)
		}
	}
	for _, q := range questions {
		if q == QuestionAreaCrossover && (s.LoMM2 <= 0 || s.HiMM2 <= s.LoMM2) {
			return cs, fmt.Errorf("actuary: sweep %q needs lo_mm2 < hi_mm2 for area-crossover, got [%v, %v]",
				s.Name, s.LoMM2, s.HiMM2)
		}
	}
	return cs, nil
}

// points returns a fresh lazy iterator over the sweep's grid.
func (cs compiledSweep) points() *SweepGenerator {
	if cs.prune {
		return cs.grid.Points(sweep.ReticleFit())
	}
	return cs.grid.Points()
}

// shardPoints returns a fresh iterator restricted to the scenario's
// shard of the grid's candidate space (the whole grid when unsharded).
func (cs compiledSweep) shardPoints(sp shardSpec) *SweepGenerator {
	gen := cs.points()
	if sp.count > 0 {
		gen.Shard(sp.index, sp.count)
	}
	return gen
}

// countsAbove returns how many count-axis entries exceed k.
func (cs compiledSweep) countsAbove(k int) int {
	n := 0
	for _, c := range cs.grid.Counts {
		if c > k {
			n++
		}
	}
	return n
}

// size returns how many requests question q contributes (before
// pruning, which only removes points).
func (cs compiledSweep) size(q Question) int {
	g := cs.grid
	combos := len(g.Nodes) * len(g.Schemes) * len(g.Quantities)
	switch {
	case perSystemQuestion(q):
		return g.Size()
	case q == QuestionCrossoverQuantity:
		return combos * len(g.AreasMM2) * cs.countsAbove(1)
	case q == QuestionOptimalChipletCount:
		return combos * len(g.AreasMM2)
	case q == QuestionAreaCrossover:
		return len(g.Nodes) * len(g.Schemes) * cs.countsAbove(1)
	case q == QuestionSweepBest, q == QuestionSearchBest:
		return 1
	}
	return 0
}

// stage returns the lazily constructed sub-source answering question q
// over this sweep. Ordering is question-major (each per-system
// question re-walks the grid), matching the materialized Requests()
// order of the pre-streaming schema; rebuilding a point's System per
// question costs ~100 ns against the ~10 µs its evaluation takes.
// Under a scenario shard spec the grid-walking questions partition at
// the generator (candidate stripes), the odometer questions at the
// dealer (request stripes), and sweep-best is emitted once per shard
// with the spec stamped onto the request.
func (cs compiledSweep) stage(q Question, policy AmortizationPolicy, shard shardSpec, dealer *stripe) func() RequestSource {
	return func() RequestSource {
		switch {
		case perSystemQuestion(q):
			src, err := SweepSource(cs.shardPoints(shard), q, policy)
			if err != nil { // unreachable: the grid was validated in compile
				return sourceFunc(func() (Request, bool) { return Request{}, false })
			}
			return src

		case q == QuestionCrossoverQuantity:
			gen := cs.shardPoints(shard)
			return sourceFunc(func() (Request, bool) {
				for {
					p, ok := gen.Next()
					if !ok {
						return Request{}, false
					}
					if p.K == 1 {
						continue // the monolithic point is the incumbent
					}
					incumbent := fmt.Sprintf("%s-a%g-soc", cs.grid.ComboID(p.Node, p.Scheme, p.Quantity), p.AreaMM2)
					return Request{
						ID:         p.ID + "/" + q.String(),
						Question:   q,
						Incumbent:  system.Monolithic(incumbent, p.Node, p.AreaMM2, p.Quantity),
						Challenger: p.System,
					}, true
				}
			})

		case q == QuestionOptimalChipletCount:
			g := cs.grid
			combos := sweep.NewOdometer(len(g.Nodes), len(g.Schemes), len(g.Quantities), len(g.AreasMM2))
			return stripedSource(sourceFunc(func() (Request, bool) {
				idx, ok := combos.Next()
				if !ok {
					return Request{}, false
				}
				node, scheme := g.Nodes[idx[0]], g.Schemes[idx[1]]
				quantity, area := g.Quantities[idx[2]], g.AreasMM2[idx[3]]
				return Request{
					ID:       fmt.Sprintf("%s-a%g/%s", g.ComboID(node, scheme, quantity), area, q),
					Question: q, Node: node, ModuleAreaMM2: area, MaxK: cs.maxK,
					Scheme: scheme, D2D: g.D2D, Quantity: quantity,
				}, true
			}), dealer)

		case q == QuestionAreaCrossover:
			g := cs.grid
			combos := sweep.NewOdometer(len(g.Nodes), len(g.Schemes), len(g.Counts))
			return stripedSource(sourceFunc(func() (Request, bool) {
				for {
					idx, ok := combos.Next()
					if !ok {
						return Request{}, false
					}
					k := g.Counts[idx[2]]
					if k < 2 {
						continue
					}
					node, scheme := g.Nodes[idx[0]], g.Schemes[idx[1]]
					return Request{
						ID:       fmt.Sprintf("%s-k%d/%s", g.AxisID(node, scheme), k, q),
						Question: q, Node: node, K: k, Scheme: scheme, D2D: g.D2D,
						LoMM2: cs.lo, HiMM2: cs.hi,
					}, true
				}
			}), dealer)

		case q == QuestionSweepBest || q == QuestionSearchBest:
			grid := cs.grid
			emitted := false
			return sourceFunc(func() (Request, bool) {
				if emitted {
					return Request{}, false
				}
				emitted = true
				req := Request{
					ID:       grid.Name + "/" + q.String(),
					Question: q, Grid: &grid, TopK: cs.topK, Policy: policy,
				}
				if q == QuestionSearchBest {
					req.Search = cs.search
				}
				if shard.count > 0 {
					// Every shard answers its stripe of the grid; the
					// partial answers merge into the whole-grid answer.
					req.ID = ShardID(req.ID, shard.index, shard.count)
					req.ShardIndex, req.ShardCount = shard.index, shard.count
				}
				return req, true
			})
		}
		return sourceFunc(func() (Request, bool) { return Request{}, false })
	}
}

// Build converts the configuration into a System. Validation against
// a technology database happens at evaluation time.
func (c SystemConfig) Build() (System, error) {
	if c.Name == "" {
		return System{}, fmt.Errorf("actuary: system config needs a name")
	}
	scheme, err := packaging.ParseScheme(c.Scheme)
	if err != nil {
		return System{}, err
	}
	flow, err := packaging.ParseFlow(c.Flow)
	if err != nil {
		return System{}, fmt.Errorf("actuary: unknown flow %q (want chip-last or chip-first)", c.Flow)
	}
	if len(c.Chiplets) == 0 {
		return System{}, fmt.Errorf("actuary: system config %q has no chiplets", c.Name)
	}
	var placements []Placement
	for _, cc := range c.Chiplets {
		if cc.Count <= 0 {
			return System{}, fmt.Errorf("actuary: chiplet %q has count %d", cc.Name, cc.Count)
		}
		if cc.D2DFraction < 0 || cc.D2DFraction >= 1 {
			return System{}, fmt.Errorf("actuary: chiplet %q has D2D fraction %v outside [0,1)", cc.Name, cc.D2DFraction)
		}
		var d2d dtod.Overhead = dtod.None{}
		if cc.D2DFraction > 0 {
			d2d = dtod.Fraction{F: cc.D2DFraction}
		}
		placements = append(placements, Placement{
			Chiplet: Chiplet{
				Name:    cc.Name,
				Node:    cc.Node,
				Modules: []Module{{Name: cc.Name + "-modules", AreaMM2: cc.ModuleAreaMM2, Scalable: true}},
				D2D:     d2d,
			},
			Count: cc.Count,
		})
	}
	return System{
		Name:       c.Name,
		Scheme:     scheme,
		Flow:       flow,
		Placements: placements,
		Quantity:   c.Quantity,
	}, nil
}
