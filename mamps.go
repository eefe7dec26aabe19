// Package mamps is the public API of the MAMPS/SDF3 design-flow
// reproduction: an automated flow that maps throughput-constrained
// applications, modelled as synchronous dataflow (SDF) graphs with
// executable actor implementations, onto a template-based multiprocessor
// system-on-chip, generates the platform, and verifies that the
// implementation meets the analyzed worst-case throughput.
//
// The package re-exports the stable surface of the internal packages:
//
//   - modelling: SDF graphs (Graph, Actor, Channel), application models
//     (App, Impl) and architecture models (Platform, Tile, Template);
//   - analysis: worst-case throughput (AnalyzeThroughput), buffer sizing
//     (MinimizeBuffers), repetition vectors;
//   - the flow: Map (the SDF3 step), GenerateProject (the MAMPS step),
//     Simulate (the platform execution), and RunFlow (Figure 1 end to
//     end);
//   - exploration: Sweep and ParetoFront over platform configurations;
//   - interchange: ReadApp/WriteApp, ReadArch/WriteArch, WriteMapping;
//   - the service: RunFlowContext/SweepContext (cancellable variants) and
//     AnalysisCache, the content-addressed memoization the mapping
//     service (cmd/mamps-serve) runs requests through.
//
// See examples/ for runnable end-to-end programs, and DESIGN.md for the
// correspondence between this code base and the paper.
package mamps

import (
	"context"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/buffer"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/mapping"
	"mamps/internal/modelio"
	"mamps/internal/platgen"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/statespace"
	"mamps/internal/wcet"
)

// Modelling types.
type (
	// Graph is a synchronous dataflow graph.
	Graph = sdf.Graph
	// Actor is a node of an SDF graph.
	Actor = sdf.Actor
	// Channel is an edge of an SDF graph.
	Channel = sdf.Channel
	// ActorID identifies an actor within a graph.
	ActorID = sdf.ActorID
	// ChannelID identifies a channel within a graph.
	ChannelID = sdf.ChannelID

	// App is an application model: a graph plus actor implementations.
	App = appmodel.App
	// Impl is one actor implementation with its metrics and behaviour.
	Impl = appmodel.Impl
	// Token is a value travelling over a channel.
	Token = appmodel.Token
	// Meter is the execution-time instrumentation actors charge.
	Meter = wcet.Meter
	// Profile aggregates measured execution times per actor.
	Profile = wcet.Profile

	// Platform is an architecture model.
	Platform = arch.Platform
	// Tile is one processing element of a platform.
	Tile = arch.Tile
	// Template generates platforms from the template components.
	Template = arch.Template
	// InterconnectKind selects FSL links or the SDM NoC.
	InterconnectKind = arch.InterconnectKind
)

// Interconnect kinds.
const (
	FSL = arch.FSL
	NoC = arch.NoC
)

// PE types.
const MicroBlaze = arch.MicroBlaze

// Flow types.
type (
	// Mapping is the verified output of the SDF3 step.
	Mapping = mapping.Mapping
	// MapOptions steers the SDF3 step.
	MapOptions = mapping.Options
	// Project is a generated MAMPS platform project.
	Project = platgen.Project
	// SimOptions configures a platform execution.
	SimOptions = sim.Options
	// SimResult is a measured platform execution.
	SimResult = sim.Result
	// FlowConfig configures the end-to-end flow.
	FlowConfig = flow.Config
	// FlowResult is the end-to-end flow outcome.
	FlowResult = flow.Result
	// DSEPoint is one explored platform configuration.
	DSEPoint = dse.Point
	// DSEConfig bounds a design-space sweep.
	DSEConfig = dse.Config
)

// NewGraph returns an empty SDF graph.
func NewGraph(name string) *Graph { return sdf.NewGraph(name) }

// NewApp returns an empty application model around a graph.
func NewApp(name string, g *Graph) *App { return appmodel.New(name, g) }

// DefaultTemplate returns the ML605/Virtex-6 reference template.
func DefaultTemplate() Template { return arch.DefaultTemplate() }

// AnalyzeThroughput returns the worst-case self-timed throughput of a
// graph in iterations per cycle (state-space analysis).
func AnalyzeThroughput(g *Graph) (float64, error) { return statespace.Throughput(g) }

// MinimizeBuffers searches for a small buffer distribution meeting the
// target throughput; it returns per-channel capacities in tokens and the
// achieved throughput.
func MinimizeBuffers(g *Graph, target float64) ([]int, float64, error) {
	d, thr, err := buffer.Minimize(g, target, buffer.Options{})
	return d, thr.Float(), err
}

// Map runs the SDF3 mapping step: binding, scheduling, buffer allocation,
// interconnect configuration and binding-aware throughput verification.
func Map(app *App, p *Platform, opt MapOptions) (*Mapping, error) {
	return mapping.Map(app, p, opt)
}

// GenerateProject runs the MAMPS platform-generation step.
func GenerateProject(m *Mapping) (*Project, error) { return platgen.Generate(m) }

// Simulate executes the mapped application on the platform simulator.
func Simulate(m *Mapping, opt SimOptions) (*SimResult, error) { return sim.Run(m, opt) }

// RunFlow executes the complete automated flow of the paper's Figure 1.
func RunFlow(cfg FlowConfig) (*FlowResult, error) { return flow.Run(cfg) }

// RunFlowContext executes the flow honouring cancellation: the context is
// checked between steps and threaded into the state-space analyses, so a
// cancelled or expired context aborts even a long verification.
func RunFlowContext(ctx context.Context, cfg FlowConfig) (*FlowResult, error) {
	return flow.RunContext(ctx, cfg)
}

// MCUsPerMegacycle converts iterations/cycle to the Figure 6 unit.
func MCUsPerMegacycle(thr float64) float64 { return flow.MCUsPerMegacycle(thr) }

// Sweep explores platform configurations for an application.
func Sweep(app *App, cfg DSEConfig) ([]DSEPoint, error) { return dse.Sweep(app, cfg) }

// SweepContext explores platform configurations honouring cancellation;
// on cancellation the points evaluated so far are returned with the error.
func SweepContext(ctx context.Context, app *App, cfg DSEConfig) ([]DSEPoint, error) {
	return dse.SweepContext(ctx, app, cfg)
}

// ParetoFront filters a sweep to its Pareto front over the three
// objectives throughput (maximized), area and energy (minimized).
func ParetoFront(points []DSEPoint) []DSEPoint { return dse.ParetoFront(points) }

// AnalysisCache is the content-addressed analysis cache of the mapping
// service (cmd/mamps-serve): pure analysis results memoized under
// canonical content keys with single-flight deduplication. Share one
// across DSEConfig.Cache values (and repeated sweeps) to reuse every
// binding-aware throughput analysis already computed.
type AnalysisCache = cache.Cache

// NewAnalysisCache returns an analysis cache bounded to capacity entries
// (LRU); non-positive selects the default capacity.
func NewAnalysisCache(capacity int) *AnalysisCache { return cache.New(capacity) }

// GraphKey returns the canonical content key of an SDF graph: a SHA-256
// over a canonical serialization that is invariant under actor and
// channel declaration reordering.
func GraphKey(g *Graph) string { return cache.GraphKey(g) }

// Interchange formats.
var (
	// ReadApp and WriteApp serialize application models (SDF3-style XML).
	ReadApp  = modelio.ReadApp
	WriteApp = modelio.WriteApp
	// ReadArch and WriteArch serialize architecture models.
	ReadArch  = modelio.ReadArch
	WriteArch = modelio.WriteArch
	// WriteMapping serializes the SDF3→MAMPS interchange document.
	WriteMapping = modelio.WriteMapping
)
