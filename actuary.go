// Package actuary is a quantitative cost model for multi-chiplet VLSI
// systems, reproducing "Chiplet Actuary: A Quantitative Cost Model and
// Multi-Chiplet Architecture Exploration" (Feng & Ma, DAC 2022).
//
// The model compares monolithic SoCs against MCM, InFO and 2.5D
// multi-chip integration on both recurring cost (wafers, dies,
// packaging, yield losses, wasted known-good dies) and non-recurring
// cost (module/chip/package design, masks, IP, D2D interfaces),
// amortized over production quantity.
//
// Quick start — batch evaluation over a concurrent Session:
//
//	s, err := actuary.NewSession()
//	soc := actuary.Monolithic("big-soc", "5nm", 800, 2_000_000)
//	mcm, err := actuary.PartitionEqual("big-mcm", "5nm", 800, 2,
//	    actuary.MCM, actuary.D2DFraction(0.10), 2_000_000)
//	results := s.Evaluate(ctx, []actuary.Request{
//	    {Question: actuary.QuestionTotalCost, System: soc},
//	    {Question: actuary.QuestionTotalCost, System: mcm},
//	})
//	fmt.Println(results[1].TotalCost.Total())
//
// Results come back in input order; each failed request carries a
// structured *actuary.Error instead of sinking the batch.
//
// Design-space sweeps should stream instead of materializing: a lazy
// SweepGrid generator feeds Session.Stream, and online aggregators
// (CostTopK, CostPareto, StreamStats) reduce arbitrarily large grids
// in O(K) memory — see the stream.go API and QuestionSweepBest.
//
// Every API type has a canonical JSON wire form (wire.go) served over
// HTTP by cmd/actuaryd and spoken by the client package, so remote
// and in-process evaluation are interchangeable; Session.Metrics
// exposes the stream's back-pressure counters for such deployments.
//
// The internal packages (yield, wafer geometry, technology database,
// packaging, NRE, reuse schemes, exploration, paper experiments) are
// exposed here through type aliases, so this package is the only
// import a downstream user needs.
package actuary

import (
	"chipletactuary/internal/cost"
	"chipletactuary/internal/dtod"
	"chipletactuary/internal/explore"
	"chipletactuary/internal/montecarlo"
	"chipletactuary/internal/nre"
	"chipletactuary/internal/packaging"
	"chipletactuary/internal/reuse"
	"chipletactuary/internal/system"
	"chipletactuary/internal/tech"
)

// Core architecture types (Eq. 3).
type (
	// Module is an indivisible group of functional units.
	Module = system.Module
	// Chiplet is a die: modules plus a D2D interface on a node.
	Chiplet = system.Chiplet
	// Placement mounts copies of a chiplet in a package.
	Placement = system.Placement
	// System is one product: placements + integration + quantity.
	System = system.System
	// Envelope is a reused package design shared by several systems.
	Envelope = system.Envelope
	// SalvageSpec enables EPYC-style partial-good harvesting on a
	// chiplet.
	SalvageSpec = system.SalvageSpec
)

// Technology and parameters.
type (
	// TechNode holds one process node's manufacturing and NRE
	// parameters.
	TechNode = tech.Node
	// TechDatabase is a collection of nodes, loadable from JSON.
	TechDatabase = tech.Database
	// PackagingParams are the packaging-technology constants.
	PackagingParams = packaging.Params
)

// Integration schemes and assembly flows.
type (
	// Scheme is an integration technology (SoC, MCM, InFO, 2.5D).
	Scheme = packaging.Scheme
	// Flow is the assembly order of Eq. (5).
	Flow = packaging.Flow
)

// Scheme and flow constants.
const (
	SoC           = packaging.SoC
	MCM           = packaging.MCM
	InFO          = packaging.InFO
	TwoPointFiveD = packaging.TwoPointFiveD

	ChipLast  = packaging.ChipLast
	ChipFirst = packaging.ChipFirst
)

// Cost results.
type (
	// REBreakdown is the five-part recurring cost of §3.2.
	REBreakdown = cost.Breakdown
	// DieCost is the per-die cost detail inside an REBreakdown.
	DieCost = cost.DieCost
	// WaferDemand is the production-planning view: wafer starts per
	// node for a production run.
	WaferDemand = cost.WaferDemand
	// NREBreakdown is the amortized NRE per unit, by design kind.
	NREBreakdown = nre.Breakdown
	// TotalCost combines RE and amortized NRE for one system unit.
	TotalCost = explore.TotalCost
	// AmortizationPolicy selects how shared designs split their NRE.
	AmortizationPolicy = nre.Policy
)

// Amortization policies.
const (
	PerSystemUnit = nre.PerSystemUnit
	PerInstance   = nre.PerInstance
)

// D2D interface models.
type (
	// D2DOverhead sizes the die-to-die interface area of a chiplet.
	D2DOverhead = dtod.Overhead
	// D2DPHY describes an interface technology (Figure 1).
	D2DPHY = dtod.PHY
	// D2DBeachfront sizes the interface from a bandwidth demand.
	D2DBeachfront = dtod.Beachfront
	// D2DTopology selects how chiplets interconnect (hub, mesh,
	// fully connected) for the scaled interface model.
	D2DTopology = dtod.Topology
	// D2DScaled grows the interface area with the link count.
	D2DScaled = dtod.Scaled
)

// D2D topologies for D2DScaled.
const (
	D2DHub            = dtod.Hub
	D2DMesh           = dtod.Mesh
	D2DFullyConnected = dtod.FullyConnected
)

// CalibrateScaledD2D anchors a scaled D2D model to a reference
// configuration's area fraction (e.g. the paper's 10% at 2 chiplets).
var CalibrateScaledD2D = dtod.CalibrateScaled

// Reuse scheme configurations (§5).
type (
	SCMSConfig = reuse.SCMSConfig
	OCMEConfig = reuse.OCMEConfig
	FSMCConfig = reuse.FSMCConfig
)

// Re-exported constructors and helpers.
var (
	// DefaultTech returns the built-in technology database.
	DefaultTech = tech.Default
	// LoadTechFile reads a technology database from a JSON file.
	LoadTechFile = tech.LoadFile
	// DefaultPackaging returns the calibrated packaging constants.
	DefaultPackaging = packaging.DefaultParams
	// ParseScheme converts "SoC"/"MCM"/"InFO"/"2.5D" to a Scheme.
	ParseScheme = packaging.ParseScheme

	// Monolithic builds a single-die SoC system.
	Monolithic = system.Monolithic
	// PartitionEqual splits a module area into k equal chiplets.
	PartitionEqual = system.PartitionEqual
	// PartitionWeighted splits a module area by weights.
	PartitionWeighted = system.PartitionWeighted

	// SCMS, OCME and FSMC build the §5 reuse-scheme families.
	SCMS = reuse.SCMS
	OCME = reuse.OCME
	FSMC = reuse.FSMC
	// SoCEquivalent builds the monolithic comparator of a system.
	SoCEquivalent = reuse.SoCEquivalent
	// CollocationCount is the §5.3 system-count formula.
	CollocationCount = reuse.CollocationCount
)

// Monte Carlo uncertainty analysis (see internal/montecarlo).
type (
	// MonteCarloSpace describes parameter perturbations.
	MonteCarloSpace = montecarlo.Space
	// MonteCarloScenario is one sampled model configuration.
	MonteCarloScenario = montecarlo.Scenario
	// MonteCarloResult summarizes a sampled metric.
	MonteCarloResult = montecarlo.Result
	// MonteCarloMetric evaluates one scalar under a scenario.
	MonteCarloMetric = montecarlo.Metric
	// Uniform, Triangular, Normal and PointDist are sampling
	// distributions for MonteCarloSpace fields.
	Uniform    = montecarlo.Uniform
	Triangular = montecarlo.Triangular
	Normal     = montecarlo.Normal
	PointDist  = montecarlo.Point
)

// Monte Carlo entry points.
var (
	// MonteCarloRun draws scenarios and evaluates a metric.
	MonteCarloRun = montecarlo.Run
	// DefaultMonteCarloSpace puts a ±rel band on every uncertain
	// parameter.
	DefaultMonteCarloSpace = montecarlo.DefaultSpace
)

// D2DFraction returns the paper's flat-fraction D2D model (e.g. 0.10
// for the 10% assumption of §4.1).
func D2DFraction(f float64) D2DOverhead { return dtod.Fraction{F: f} }

// D2DNone returns the zero-overhead model used by monolithic SoCs.
func D2DNone() D2DOverhead { return dtod.None{} }

// Figure 1 D2D interface presets.
var (
	MCMSerDes          = dtod.MCMSerDes
	InFOFanout         = dtod.InFOFanout
	InterposerParallel = dtod.InterposerParallel
)
