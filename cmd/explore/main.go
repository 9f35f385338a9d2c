// Command explore answers the §6 decision questions from the command
// line: when does a partition pay back, how many chiplets are optimal,
// where is the area turning point, which packaging parameters matter
// most, and — in sweep mode — which corner of a multi-axis grid is
// cheapest, without writing a scenario file.
//
// Usage:
//
//	explore -mode payback   -node 5nm -area 800 -chiplets 2 -scheme MCM
//	explore -mode optimal-k -node 5nm -area 800 -quantity 2000000 -scheme MCM [-maxk 8]
//	explore -mode turning   -node 5nm -chiplets 2 -scheme MCM
//	explore -mode sensitivity -node 7nm -area 600 -chiplets 3 -scheme 2.5D
//	explore -mode sweep -nodes 5nm,7nm -schemes MCM,2.5D \
//	        -area-range 200:800:100 -count-range 1:8 -top 5
//	explore -mode sweep -backends http://host1:8833,http://host2:8833 ...
//	explore -mode search -nodes 5nm,7nm -schemes MCM,2.5D \
//	        -area-range 200:800:25 -count-range 1:8 -top 3 -refine 4:2
//
// Sweep mode maps the grid flags onto the same SweepConfig the
// scenario schema uses, streams the grid lazily through a sweep-best
// request, and prints the top-N points, the RE-vs-NRE Pareto front
// and a summary. List flags (-nodes, -schemes) take comma-separated
// values and override their singular forms; -area-range is
// lo:hi:step in mm², -count-range is lo:hi.
//
// Search mode answers the same question adaptively (a search-best
// request): lower-bound pruning alone (the default) reproduces the
// exhaustive answer exactly while skipping provably-worse candidates;
// -refine factor[:knees] walks a coarse subsampled grid first and
// recursively refines around the best points; -halving slabs:sample
// over-partitions the grid and successively halves the slab set by
// sampled cost; -budget caps evaluations. The top table goes to
// stdout, the walk accounting (evaluated/grid ratio, prune counts,
// stages, incumbent trajectory) to stderr. -checkpoint works as in
// sweep mode; -backends/-fleet/-shards do not apply.
//
// With -backends or -fleet the sweep is sharded across several
// evaluation backends — actuaryd base URLs, or the literal "local" for
// an in-process session — on the fleet coordinator, and the per-shard
// aggregates merge into exactly the single-process answer (same top-K,
// Pareto front and summary, whatever the fan-out). Both flags take
// the same list syntax and apply to stream mode too; scheduling
// events and a per-backend report go to stderr.
//
// -backends keeps the scheduler simple: no health probes, no
// speculation, one shard per backend unless -shards says otherwise,
// and a shard moves to another backend only after a completed
// transport failure. A list with no live backend fails with a
// transport error. Smaller shards (-shards) reassign more cheaply
// when a backend dies mid-sweep.
//
// -fleet adds the health-aware behaviors: the grid is
// over-partitioned, every backend is probed (mark-down/mark-up events
// go to stderr), shards lost to dead or wedged backends are stolen by
// live ones, and the last in-flight shards are speculatively
// re-executed so one straggler cannot stall the run. One probe round
// runs before dispatch; when no listed backend answers it, the run
// fails with a transport error instead of waiting for a mark-up.
// -fleet-probe-every tunes the probe cadence; -fleet-probe-timeout
// bounds how long a single probe may hang before counting as a
// failure (how fast a wedged-but-listening daemon is caught).
//
// With -checkpoint FILE the sweep is durable: progress is persisted
// to FILE as the sweep runs (atomically — a crash or SIGKILL leaves a
// valid checkpoint), an existing FILE auto-resumes instead of
// starting over, and the resumed output is byte-identical to an
// uninterrupted run. FILE is removed when the sweep completes. Local
// sweeps checkpoint the walk cursor every -checkpoint-every grid
// candidates; sharded sweeps (-backends or -fleet) checkpoint per
// drained shard and re-dispatch only the missing shards on resume.
//
// Stream mode prints every result of the grid as NDJSON on stdout —
// the same wire form /v1/stream serves — instead of aggregating:
//
//	explore -mode stream -questions optimal-chiplet-count \
//	        -nodes 5nm,7nm -schemes MCM,2.5D -area-range 200:800:100
//	explore -mode stream -fleet http://host1:8833,http://host2:8833 \
//	        -checkpoint stream.ckpt ...
//
// -questions picks the per-point scenario questions to stream.
// Without backends the stream is evaluated in-process. With -backends
// or -fleet the scenario is striped across the listed backends and
// the per-shard streams are merged back in order, byte-identical to
// the single-backend stream; -fleet adds health probing, stealing and
// speculation. With -checkpoint (and either flag) the merged stream
// is durable — a killed run resumes at the exact result the saved
// cursor names, re-evaluating nothing that was already delivered.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chipletactuary"
	"chipletactuary/client"
	"chipletactuary/fleet"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/report"
	"chipletactuary/internal/units"
)

func main() {
	// Ctrl-C cancels the context: in-flight Evaluate work (including a
	// long sweep walk) stops at the next cancellation check instead of
	// the process dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	mode := fs.String("mode", "", "payback, optimal-k, turning, sensitivity, sweep, search or stream")
	node := fs.String("node", "5nm", "process node")
	area := fs.Float64("area", 800, "total module area in mm²")
	chiplets := fs.Int("chiplets", 2, "partition count for payback/turning/sensitivity")
	maxK := fs.Int("maxk", 8, "maximum partition count for optimal-k (and the default count axis of sweep)")
	schemeName := fs.String("scheme", "MCM", "integration scheme: MCM, InFO or 2.5D")
	quantity := fs.Float64("quantity", 2_000_000, "production quantity for optimal-k and sweep")
	d2dFrac := fs.Float64("d2d", 0.10, "D2D interface fraction of die area")
	nodes := fs.String("nodes", "", "sweep: comma-separated node axis (overrides -node)")
	schemes := fs.String("schemes", "", "sweep: comma-separated scheme axis (overrides -scheme)")
	areaRange := fs.String("area-range", "", "sweep: module-area axis lo:hi:step in mm² (default: -area only)")
	countRange := fs.String("count-range", "", "sweep: partition-count axis lo:hi (default: 1:-maxk)")
	topN := fs.Int("top", 5, "sweep: how many cheapest points to print")
	questions := fs.String("questions", "", "stream: comma-separated scenario questions to stream (default optimal-chiplet-count)")
	backends := fs.String("backends", "", "sweep/stream: comma-separated evaluation backends (actuaryd URLs, or \"local\" for in-process); empty evaluates in-process")
	fleetList := fs.String("fleet", "", "sweep/stream: like -backends but with health probing, work stealing and speculation")
	fleetProbeEvery := fs.Duration("fleet-probe-every", 500*time.Millisecond, "sweep/stream: fleet health-probe interval")
	fleetProbeTimeout := fs.Duration("fleet-probe-timeout", time.Second, "sweep/stream: per-probe timeout before a backend counts as failed")
	shards := fs.Int("shards", 0, "sweep/stream: how many shards to split the grid into (default: one per backend; -fleet over-partitions)")
	checkpoint := fs.String("checkpoint", "", "sweep/search/stream: checkpoint file — written during the run, auto-resumed when present, removed on success")
	checkpointEvery := fs.Int("checkpoint-every", 2000, "sweep/search/stream: grid candidates (stream: delivered results) between checkpoint writes; sharded sweeps checkpoint per shard")
	budget := fs.Int("budget", 0, "search: maximum candidates to evaluate (0 = unlimited)")
	refine := fs.String("refine", "", "search: coarse-to-fine refinement factor[:knees], e.g. 4 or 4:2")
	halving := fs.String("halving", "", "search: successive halving slabs:sample, e.g. 8:64")
	bound := fs.Bool("bound", true, "search: prune candidates via the die-cost lower bound")
	tolerance := fs.Float64("tolerance", 0.0, "search: acceptable relative cost gap vs the exhaustive best (refine/halving)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "explore: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect garbage so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "explore: -memprofile:", err)
			}
		}()
	}
	if *mode == "sweep" || *mode == "search" || *mode == "stream" {
		// -checkpoint-every tunes a checkpointed run; without
		// -checkpoint it would silently configure durability that does
		// not exist — the same class of mistake the non-sweep flag
		// rejection below catches.
		if set["checkpoint-every"] && *checkpoint == "" {
			return fmt.Errorf("-checkpoint-every requires -checkpoint")
		}
		f := sweepFlags{
			node: *node, nodes: *nodes, scheme: *schemeName, schemes: *schemes,
			area: *area, areaRange: *areaRange, maxK: *maxK, countRange: *countRange,
			quantity: *quantity, d2d: *d2dFrac, top: *topN, questions: *questions,
			backends: *backends, shards: *shards,
			fleet: *fleetList, fleetProbeEvery: *fleetProbeEvery,
			fleetProbeTimeout: *fleetProbeTimeout,
			checkpoint:        *checkpoint, checkpointEvery: *checkpointEvery,
			budget: *budget, refine: *refine, halving: *halving,
			bound: *bound, tolerance: *tolerance,
		}
		if *mode != "stream" && set["questions"] {
			return fmt.Errorf("-questions requires -mode stream")
		}
		if *mode == "search" {
			// The adaptive walk is stateful (its bound tightens as it
			// evaluates); it runs in-process rather than fanning out.
			for _, name := range []string{"backends", "fleet", "fleet-probe-every", "fleet-probe-timeout", "shards"} {
				if set[name] {
					return fmt.Errorf("-%s requires -mode sweep or stream", name)
				}
			}
			return runSearch(ctx, out, f)
		}
		for _, name := range []string{"budget", "refine", "halving", "bound", "tolerance"} {
			if set[name] {
				return fmt.Errorf("-%s requires -mode search", name)
			}
		}
		if *backends != "" && *fleetList != "" {
			return fmt.Errorf("-backends and -fleet are mutually exclusive")
		}
		if set["fleet-probe-every"] && *fleetList == "" {
			return fmt.Errorf("-fleet-probe-every requires -fleet")
		}
		if set["fleet-probe-timeout"] && *fleetList == "" {
			return fmt.Errorf("-fleet-probe-timeout requires -fleet")
		}
		if *mode == "stream" {
			// A checkpointed stream resumes through the fleet
			// coordinator's cursor machinery; the in-process stream has
			// no per-result durability to offer.
			if *checkpoint != "" && *backends == "" && *fleetList == "" {
				return fmt.Errorf("-checkpoint in stream mode requires -backends or -fleet")
			}
			return runStream(ctx, out, f)
		}
		return runSweep(ctx, out, f)
	}
	// The grid flags mean nothing outside sweep/search mode; reject
	// them (including an explicitly set -top, whose default would
	// otherwise hide the mistake) instead of silently ignoring them.
	for _, name := range []string{"nodes", "schemes", "area-range", "count-range", "top", "questions", "backends", "fleet", "fleet-probe-every", "fleet-probe-timeout", "shards", "checkpoint", "checkpoint-every", "budget", "refine", "halving", "bound", "tolerance"} {
		if set[name] {
			return fmt.Errorf("-%s requires -mode sweep, search or stream", name)
		}
	}
	scheme, err := actuary.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	s, err := actuary.NewSession()
	if err != nil {
		return err
	}
	d2d := actuary.D2DFraction(*d2dFrac)
	// Each mode is one request of a one-member batch; the Session API
	// returns a structured per-request error either way.
	ask := func(req actuary.Request) (actuary.Result, error) {
		res := s.Evaluate(ctx, []actuary.Request{req})[0]
		return res, res.Err
	}

	switch *mode {
	case "payback":
		soc := actuary.Monolithic("soc", *node, *area, 1)
		multi, err := actuary.PartitionEqual("multi", *node, *area, *chiplets, scheme, d2d, 1)
		if err != nil {
			return err
		}
		res, err := ask(actuary.Request{Question: actuary.QuestionCrossoverQuantity,
			Incumbent: soc, Challenger: multi})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d-chiplet %v of a %s %.0f mm² system pays back against the monolithic SoC at %.0f units\n",
			*chiplets, scheme, *node, *area, res.Quantity)
		return nil

	case "optimal-k":
		res, err := ask(actuary.Request{Question: actuary.QuestionOptimalChipletCount,
			Node: *node, ModuleAreaMM2: *area, MaxK: *maxK, Scheme: scheme, D2D: d2d, Quantity: *quantity})
		if err != nil {
			return err
		}
		points, best := res.Points, res.Best
		tab := report.NewTable(
			fmt.Sprintf("Partition sweep — %s, %.0f mm², %v, %.0f units", *node, *area, scheme, *quantity),
			"chiplets", "scheme", "RE/unit", "NRE/unit", "total/unit")
		for _, p := range points {
			tab.MustAddRow(fmt.Sprintf("%d", p.Chiplets), p.Scheme.String(),
				units.Dollars(p.Total.RE.Total()), units.Dollars(p.Total.NRE.Total()),
				units.Dollars(p.Total.Total()))
		}
		if err := tab.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "optimum: %d chiplet(s) at %s per unit\n",
			points[best].Chiplets, units.Dollars(points[best].Total.Total()))
		return nil

	case "turning":
		res, err := ask(actuary.Request{Question: actuary.QuestionAreaCrossover,
			Node: *node, K: *chiplets, Scheme: scheme, D2D: d2d, LoMM2: 100, HiMM2: 900})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d-chiplet %v starts beating the monolithic SoC on RE at %.0f mm² (%s)\n",
			*chiplets, scheme, res.AreaMM2, *node)
		return nil

	case "sensitivity":
		sys, err := actuary.PartitionEqual("s", *node, *area, *chiplets, scheme, d2d, 1)
		if err != nil {
			return err
		}
		points, err := explore.PackagingSensitivity(s.Tech(), s.Packaging(), sys, 0.2)
		if err != nil {
			return err
		}
		tab := report.NewTable(
			fmt.Sprintf("Packaging sensitivity (±20%%) — %s, %.0f mm², %d-chiplet %v", *node, *area, *chiplets, scheme),
			"parameter", "low", "base", "high", "swing")
		for _, p := range points {
			tab.MustAddRow(p.Parameter, units.Dollars(p.Low), units.Dollars(p.Base),
				units.Dollars(p.High), units.Dollars(p.Swing()))
		}
		return tab.WriteText(out)

	default:
		fs.Usage()
		return fmt.Errorf("unknown -mode %q", *mode)
	}
}

// sweepFlags carries the grid flags of -mode sweep.
type sweepFlags struct {
	node, nodes       string
	scheme, schemes   string
	area              float64
	areaRange         string
	maxK              int
	countRange        string
	quantity          float64
	d2d               float64
	top               int
	questions         string
	backends          string
	shards            int
	fleet             string
	fleetProbeEvery   time.Duration
	fleetProbeTimeout time.Duration
	checkpoint        string
	checkpointEvery   int
	budget            int
	refine            string
	halving           string
	bound             bool
	tolerance         float64
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseAreaRange parses "lo:hi:step" in mm².
func parseAreaRange(s string) (*actuary.AreaRangeConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-area-range wants lo:hi:step, got %q", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-area-range %q: %w", s, err)
		}
		vals[i] = v
	}
	return &actuary.AreaRangeConfig{LoMM2: vals[0], HiMM2: vals[1], StepMM2: vals[2]}, nil
}

// parseCountRange parses "lo:hi".
func parseCountRange(s string) (*actuary.CountRangeConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return nil, fmt.Errorf("-count-range wants lo:hi, got %q", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("-count-range %q: %w", s, err)
	}
	hi, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("-count-range %q: %w", s, err)
	}
	return &actuary.CountRangeConfig{Lo: lo, Hi: hi}, nil
}

// runSweep maps the grid flags onto a SweepConfig — the same
// declaration a scenario file would hold — and answers it with one
// streaming sweep-best request: lazy generation, reticle/interposer
// pruning, O(top + front) memory however many points the axes span.
func runSweep(ctx context.Context, out io.Writer, f sweepFlags) error {
	sc, err := buildSweepConfig(f, "sweep")
	if err != nil {
		return err
	}

	// Compiling through the scenario schema reuses its validation and
	// axis merging; the single compiled request streams the grid
	// internally.
	cfg := actuary.ScenarioConfig{Name: "explore", Questions: []string{"sweep-best"},
		Sweeps: []actuary.SweepConfig{sc}}
	var b *actuary.SweepBest
	switch {
	case f.backends != "" || f.fleet != "":
		b, err = runFleet(ctx, f, cfg)
	case f.checkpoint != "":
		b, err = runCheckpointed(ctx, f, cfg)
	default:
		var reqs []actuary.Request
		if reqs, err = cfg.Requests(); err != nil {
			return err
		}
		var s *actuary.Session
		if s, err = actuary.NewSession(); err != nil {
			return err
		}
		res := s.Evaluate(ctx, reqs)[0]
		b, err = res.SweepBest, res.Err
	}
	if err != nil {
		return err
	}
	if err := printSweepBest(out, b); err != nil {
		return err
	}
	if f.checkpoint != "" {
		// Remove only after the answer is safely out: a kill (or a
		// broken pipe) between computing and printing must leave the
		// checkpoint behind, so the re-run resumes from the last
		// snapshot instead of re-walking the whole sweep. A stale file
		// would otherwise make the next run of a different sweep fail
		// its fingerprint check.
		if err := os.Remove(f.checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("removing completed checkpoint: %w", err)
		}
	}
	return nil
}

// buildSweepConfig maps the shared grid flags onto the SweepConfig the
// scenario schema uses — one grid declaration for sweep and search
// modes, so their candidate spaces cannot drift apart.
func buildSweepConfig(f sweepFlags, name string) (actuary.SweepConfig, error) {
	if f.top < 1 {
		return actuary.SweepConfig{}, fmt.Errorf("-top wants a positive count, got %d", f.top)
	}
	sc := actuary.SweepConfig{
		Name:        name,
		D2DFraction: f.d2d,
		Quantity:    f.quantity,
		TopK:        f.top,
	}
	if f.nodes != "" {
		sc.Nodes = splitList(f.nodes)
	} else {
		sc.Node = f.node
	}
	if f.schemes != "" {
		sc.Schemes = splitList(f.schemes)
	} else {
		sc.Scheme = f.scheme
	}
	if f.areaRange != "" {
		r, err := parseAreaRange(f.areaRange)
		if err != nil {
			return actuary.SweepConfig{}, err
		}
		sc.AreaRange = r
	} else {
		sc.AreasMM2 = []float64{f.area}
	}
	if f.countRange != "" {
		r, err := parseCountRange(f.countRange)
		if err != nil {
			return actuary.SweepConfig{}, err
		}
		sc.CountRange = r
	} else {
		sc.CountRange = &actuary.CountRangeConfig{Lo: 1, Hi: f.maxK}
	}
	return sc, nil
}

// parseRefine parses "factor" or "factor:knees".
func parseRefine(s string) (*actuary.SearchRefineSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 2 {
		return nil, fmt.Errorf("-refine wants factor or factor:knees, got %q", s)
	}
	factor, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("-refine %q: %w", s, err)
	}
	spec := &actuary.SearchRefineSpec{Factor: factor}
	if len(parts) == 2 {
		if spec.Knees, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return nil, fmt.Errorf("-refine %q: %w", s, err)
		}
	}
	return spec, nil
}

// parseHalving parses "slabs:sample".
func parseHalving(s string) (*actuary.SearchHalvingSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return nil, fmt.Errorf("-halving wants slabs:sample, got %q", s)
	}
	slabs, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("-halving %q: %w", s, err)
	}
	sample, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("-halving %q: %w", s, err)
	}
	return &actuary.SearchHalvingSpec{Slabs: slabs, Sample: sample}, nil
}

// runSearch answers the same grid flags with one adaptive search-best
// request: lower-bound pruning (exhaustive-exact when used alone),
// plus optional coarse-to-fine refinement and successive halving. The
// top table goes to stdout; the walk accounting — evaluated vs grid
// size, prune counts, stages, incumbent trajectory — goes to stderr in
// the same shape as the fleet scheduling report.
func runSearch(ctx context.Context, out io.Writer, f sweepFlags) error {
	sc, err := buildSweepConfig(f, "search")
	if err != nil {
		return err
	}
	spec := &actuary.SearchSpec{Budget: f.budget, Bound: f.bound, Tolerance: f.tolerance}
	if f.refine != "" {
		if spec.Refine, err = parseRefine(f.refine); err != nil {
			return err
		}
	}
	if f.halving != "" {
		if spec.Halving, err = parseHalving(f.halving); err != nil {
			return err
		}
	}
	sc.Search = spec

	cfg := actuary.ScenarioConfig{Name: "explore", Questions: []string{"search-best"},
		Sweeps: []actuary.SweepConfig{sc}}
	reqs, err := cfg.Requests()
	if err != nil {
		return err
	}
	req := reqs[0]
	s, err := actuary.NewSession()
	if err != nil {
		return err
	}
	var b *actuary.SearchBest
	if f.checkpoint == "" {
		res := s.Evaluate(ctx, []actuary.Request{req})[0]
		b, err = res.SearchBest, res.Err
	} else {
		var resume *actuary.SearchCheckpoint
		switch cp, loadErr := actuary.LoadCheckpointFile[actuary.SearchCheckpoint](f.checkpoint); {
		case loadErr == nil:
			resume = cp
			fmt.Fprintf(os.Stderr, "explore: resuming from checkpoint %s (stage %d, candidate %d)\n",
				f.checkpoint, cp.Planner.StageIndex(), cp.Cursor.Candidate)
		case !errors.Is(loadErr, os.ErrNotExist):
			return loadErr
		}
		b, err = s.SearchBestCheckpointed(ctx, req, resume, f.checkpointEvery,
			func(cp *actuary.SearchCheckpoint) error {
				return actuary.SaveCheckpointFile(f.checkpoint, cp)
			})
	}
	if err != nil {
		return err
	}
	if err := printSearchBest(out, b); err != nil {
		return err
	}
	printSearchStats(b.Stats)
	if f.checkpoint != "" {
		// Remove only after the answer is safely out, exactly as sweep
		// mode does.
		if err := os.Remove(f.checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("removing completed checkpoint: %w", err)
		}
	}
	return nil
}

// printSearchBest renders a search-best answer's top table.
func printSearchBest(out io.Writer, b *actuary.SearchBest) error {
	tab := report.NewTable(
		fmt.Sprintf("Top %d by adaptive search — evaluated %d of %d grid candidates (%.1f%%)",
			len(b.Top), b.Stats.Evaluated, b.Stats.GridSize, 100*b.Stats.EvaluatedRatio()),
		"point", "node", "scheme", "area", "k", "total/unit")
	for _, p := range b.Top {
		tab.MustAddRow(p.ID, p.Node, p.Scheme.String(), units.Area(p.AreaMM2),
			fmt.Sprintf("%d", p.K), units.Dollars(p.Total.Total()))
	}
	return tab.WriteText(out)
}

// printSearchStats renders the walk accounting to stderr, in the same
// shape as the fleet scheduling report.
func printSearchStats(st actuary.SearchStats) {
	fmt.Fprintf(os.Stderr, "explore: search: evaluated %d/%d candidates (%.1f%%), %d bound-pruned, %d pruned, %d deduped, %d infeasible, %d stages\n",
		st.Evaluated, st.GridSize, 100*st.EvaluatedRatio(),
		st.BoundPruned, st.Pruned, st.Deduped, st.Infeasible, st.Stages)
	if st.BudgetExhausted {
		fmt.Fprintln(os.Stderr, "explore: search:   budget exhausted before the final stage completed")
	}
	for _, inc := range st.Trajectory {
		fmt.Fprintf(os.Stderr, "explore: search:   stage %-3d incumbent %-40s %s/unit\n",
			inc.Stage, inc.ID, units.Dollars(inc.Cost))
	}
}

// runCheckpointed evaluates the compiled sweep-best request in
// process with a durable walk: the checkpoint file is written (tmp +
// rename, SIGKILL-safe) every -checkpoint-every candidates, and an
// existing file resumes the walk from its cursor instead of starting
// over. The resumed output is byte-identical to an uninterrupted run
// — the kill-and-resume CI harness diffs exactly that.
func runCheckpointed(ctx context.Context, f sweepFlags, cfg actuary.ScenarioConfig) (*actuary.SweepBest, error) {
	reqs, err := cfg.Requests()
	if err != nil {
		return nil, err
	}
	req := reqs[0]
	var resume *actuary.SweepCheckpoint
	switch cp, err := actuary.LoadCheckpointFile[actuary.SweepCheckpoint](f.checkpoint); {
	case err == nil:
		resume = cp
		fmt.Fprintf(os.Stderr, "explore: resuming from checkpoint %s (candidate %d, %d feasible points so far)\n",
			f.checkpoint, cp.Cursor.Candidate, cp.Summary.Count)
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	s, err := actuary.NewSession()
	if err != nil {
		return nil, err
	}
	return s.SweepBestCheckpointed(ctx, req, resume, f.checkpointEvery,
		func(cp *actuary.SweepCheckpoint) error {
			return actuary.SaveCheckpointFile(f.checkpoint, cp)
		})
}

// fleetSetup dials the -backends or -fleet list into a registry and
// returns the coordinator options that give the flag its semantics,
// plus a function that stops the health probes. -backends runs with
// no monitor and no speculation, one shard per backend unless -shards
// is set: a shard moves only after a completed transport failure, and
// a list with no live backend fails with ErrTransport. -fleet attaches
// a probing monitor; one probe round runs before dispatch, because a
// run whose backends are all marked down parks until a mark-up that
// may never come, and explore has no deadline to end it.
func fleetSetup(ctx context.Context, f sweepFlags) (*fleet.Registry, []fleet.Option, func(), error) {
	list := f.fleet
	if f.backends != "" {
		list = f.backends
	}
	reg := fleet.NewRegistry()
	used := make(map[string]int)
	for _, name := range splitList(list) {
		label := name
		if n := used[name]; n > 0 {
			label = fmt.Sprintf("%s#%d", name, n+1)
		}
		used[name]++
		var backend client.Backend
		if name == "local" {
			s, err := actuary.NewSession()
			if err != nil {
				return nil, nil, nil, err
			}
			backend = client.Local(s)
		} else {
			c, err := client.Dial(name)
			if err != nil {
				return nil, nil, nil, err
			}
			backend = c
		}
		if err := reg.Add(label, backend); err != nil {
			return nil, nil, nil, err
		}
	}

	// One event printer for monitor and scheduler: the straggler smoke
	// harness greps these lines for "marked down" / "marked up".
	logEvent := func(ev fleet.Event) {
		switch ev.Kind {
		case "mark-down":
			fmt.Fprintf(os.Stderr, "explore: fleet: %s marked down (%s)\n", ev.Backend, ev.Detail)
		case "mark-up":
			fmt.Fprintf(os.Stderr, "explore: fleet: %s marked up (%s)\n", ev.Backend, ev.Detail)
		default:
			fmt.Fprintf(os.Stderr, "explore: fleet: %s %s: %s\n", ev.Backend, ev.Kind, ev.Detail)
		}
	}
	opts := []fleet.Option{fleet.WithEvents(logEvent), fleet.WithShards(f.shards)}
	if f.backends != "" {
		opts = append(opts, fleet.WithOverPartition(1), fleet.WithSpeculation(false))
		return reg, opts, func() {}, nil
	}
	mon, err := fleet.NewMonitor(reg,
		fleet.ProbeEvery(f.fleetProbeEvery), fleet.ProbeTimeout(f.fleetProbeTimeout),
		fleet.MonitorEvents(logEvent))
	if err != nil {
		return nil, nil, nil, err
	}
	mon.ProbeOnce(ctx)
	var down []string
	for _, h := range mon.Snapshot() {
		if h.State == fleet.StateDown {
			down = append(down, fmt.Sprintf("%s (%v)", h.Name, h.LastErr))
		}
	}
	if len(down) > 0 && len(down) == reg.Len() {
		return nil, nil, nil, &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1,
			Err: fmt.Errorf("no -fleet backend answered its first probe: %s", strings.Join(down, ", "))}
	}
	probeCtx, stopProbes := context.WithCancel(ctx)
	go mon.Run(probeCtx)
	return reg, append(opts, fleet.WithMonitor(mon)), stopProbes, nil
}

// runFleet fans the compiled sweep-best scenario across the -backends
// or -fleet list: scheduling events stream to stderr, and the run ends
// with a per-backend scheduling report. The merged answer is identical
// to the single-process one whatever died, hung or joined along the
// way.
func runFleet(ctx context.Context, f sweepFlags, cfg actuary.ScenarioConfig) (*actuary.SweepBest, error) {
	reg, opts, stop, err := fleetSetup(ctx, f)
	if err != nil {
		return nil, err
	}
	defer stop()
	coord, err := fleet.New(reg, opts...)
	if err != nil {
		return nil, err
	}

	var best *actuary.SweepBest
	if f.checkpoint == "" {
		best, err = coord.SweepBestScenario(ctx, cfg)
	} else {
		var resume *actuary.CoordinatorCheckpoint
		switch cp, loadErr := actuary.LoadCheckpointFile[actuary.CoordinatorCheckpoint](f.checkpoint); {
		case loadErr == nil:
			resume = cp
			fmt.Fprintf(os.Stderr, "explore: resuming from checkpoint %s (%d of %d shards drained)\n",
				f.checkpoint, len(cp.Completed), cp.Shards)
		case !errors.Is(loadErr, os.ErrNotExist):
			return nil, loadErr
		}
		best, err = coord.SweepBestScenarioCheckpointed(ctx, cfg, resume,
			func(cp *actuary.CoordinatorCheckpoint) error {
				return actuary.SaveCheckpointFile(f.checkpoint, cp)
			})
	}
	printFleetStats(coord.Stats())
	if err != nil {
		return nil, err
	}
	return best, nil
}

// printFleetStats renders the run's per-backend scheduling report to
// stderr.
func printFleetStats(st fleet.Stats) {
	fmt.Fprintf(os.Stderr, "explore: fleet: %d shards, %d requeues, %d speculations, %d steals, %d duplicates\n",
		st.Shards, st.Requeues, st.Speculations, st.Steals, st.Duplicates)
	for _, bs := range st.Backends {
		state := bs.State
		if state == "" {
			state = "unprobed"
		}
		fmt.Fprintf(os.Stderr, "explore: fleet:   %-24s %-8s shards=%d stolen=%d speculated=%d duplicates=%d transport-failures=%d\n",
			bs.Name, state, bs.Shards, bs.Stolen, bs.Speculated, bs.Duplicates, bs.TransportFailures)
	}
}

// runStream answers the grid flags as an NDJSON result stream on
// stdout — the same wire form /v1/stream serves, one canonical JSON
// line per result in request order — instead of aggregating. Without
// backends the stream is evaluated in-process; with -backends or
// -fleet it is striped across the fleet stream coordinator, optionally
// durable via -checkpoint. Every path emits byte-identical output.
func runStream(ctx context.Context, out io.Writer, f sweepFlags) error {
	sc, err := buildSweepConfig(f, "stream")
	if err != nil {
		return err
	}
	qs := splitList(f.questions)
	if len(qs) == 0 {
		qs = []string{"optimal-chiplet-count"}
	}
	cfg := actuary.ScenarioConfig{Name: "explore", Questions: qs,
		Sweeps: []actuary.SweepConfig{sc}}

	w := bufio.NewWriter(out)
	var line []byte
	emit := func(r actuary.Result) error {
		var err error
		if line, err = actuary.AppendResultLine(line[:0], r); err != nil {
			return err
		}
		_, err = w.Write(line)
		return err
	}
	// Drain a merged stream to stdout; a final negative-index result is
	// the run-level failure, delivered in-band.
	drain := func(ch <-chan actuary.Result) error {
		for r := range ch {
			if r.Index < 0 {
				w.Flush()
				return r.Err
			}
			if err := emit(r); err != nil {
				return err
			}
		}
		return w.Flush()
	}

	if f.backends != "" || f.fleet != "" {
		return runFleetStream(ctx, f, cfg, w, emit, drain)
	}
	s, err := actuary.NewSession()
	if err != nil {
		return err
	}
	ch, err := client.Local(s).Stream(ctx, client.StreamRequest{Scenario: cfg, Ordered: true})
	if err != nil {
		return err
	}
	return drain(ch)
}

// runFleetStream stripes the stream scenario across the -backends or
// -fleet list and merges the shard streams back into single-backend
// order. With -checkpoint the merged cursor is saved every
// -checkpoint-every results — stdout is flushed before each save, so
// the cursor never claims a result that is not durably written — and
// an existing checkpoint resumes the stream at the exact next result,
// re-evaluating none of the delivered prefix.
func runFleetStream(ctx context.Context, f sweepFlags, cfg actuary.ScenarioConfig, w *bufio.Writer, emit func(actuary.Result) error, drain func(<-chan actuary.Result) error) error {
	reg, opts, stop, err := fleetSetup(ctx, f)
	if err != nil {
		return err
	}
	defer stop()
	coord, err := fleet.NewStream(reg, append(opts, fleet.WithStreamTopK(f.top))...)
	if err != nil {
		return err
	}

	if f.checkpoint == "" {
		ch, err := coord.Stream(ctx, cfg)
		if err != nil {
			return err
		}
		err = drain(ch)
		printFleetStats(coord.Stats())
		return err
	}

	var resume *actuary.FleetStreamCheckpoint
	switch cp, loadErr := actuary.LoadCheckpointFile[actuary.FleetStreamCheckpoint](f.checkpoint); {
	case loadErr == nil:
		resume = cp
		fmt.Fprintf(os.Stderr, "explore: resuming from checkpoint %s (%d results delivered across %d shards)\n",
			f.checkpoint, cp.Merged.Next, cp.Shards)
	case !errors.Is(loadErr, os.ErrNotExist):
		return loadErr
	}
	save := func(cp *actuary.FleetStreamCheckpoint) error {
		// Flush before persisting the cursor: everything the
		// checkpoint claims as delivered must already be on stdout, or
		// a kill between save and flush would lose delivered results
		// the resume will never re-send.
		if err := w.Flush(); err != nil {
			return err
		}
		return actuary.SaveCheckpointFile(f.checkpoint, cp)
	}
	_, err = coord.StreamCheckpointed(ctx, cfg, resume, f.checkpointEvery, save, emit)
	printFleetStats(coord.Stats())
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	// Remove only after the stream is safely out (see runSweep).
	if err := os.Remove(f.checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("removing completed checkpoint: %w", err)
	}
	return nil
}

// printSweepBest renders a sweep-best answer — local or merged from
// shards — as the top table, the Pareto front and the summary line.
func printSweepBest(out io.Writer, b *actuary.SweepBest) error {
	tab := report.NewTable(
		fmt.Sprintf("Top %d of %d feasible design points (%d pruned, %d infeasible)",
			len(b.Top), b.Summary.Count, b.Pruned, b.Infeasible),
		"point", "node", "scheme", "area", "k", "total/unit")
	for _, p := range b.Top {
		tab.MustAddRow(p.ID, p.Node, p.Scheme.String(), units.Area(p.AreaMM2),
			fmt.Sprintf("%d", p.K), units.Dollars(p.Total.Total()))
	}
	if err := tab.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	front := report.NewTable("Pareto front: RE vs amortized NRE (both minimized)",
		"point", "RE", "NRE/unit", "total")
	for _, p := range b.Pareto {
		front.MustAddRow(p.ID, units.Dollars(p.Total.RE.Total()),
			units.Dollars(p.Total.NRE.Total()), units.Dollars(p.Total.Total()))
	}
	if err := front.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ncheapest %s at %s/unit; mean %s over %d points\n",
		b.Summary.MinID, units.Dollars(b.Summary.Min), units.Dollars(b.Summary.Mean()), b.Summary.Count)
	if b.FirstFailure != nil {
		// FailureCause renders identically whether the failure stayed
		// in-process or crossed the wire from a remote shard.
		fmt.Fprintf(out, "first infeasible point: %v\n", actuary.FailureCause(b.FirstFailure))
	}
	return nil
}
