package modelio

import (
	"encoding/json"
	"fmt"
	"io"

	"mamps/internal/dse"
	"mamps/internal/faults"
	"mamps/internal/flow"
	"mamps/internal/sdf"
)

// JSON interchange: the machine-readable request/response encoding of the
// mapping service (cmd/mamps-serve), shared by the command-line tools'
// -json output so a result looks the same whether it came over HTTP or
// from a batch run.

// WorkloadJSON names a built-in application generator instead of an
// inline XML model. The only generator today is the paper's case study:
// name "mjpeg", an encoded test sequence decoded by the five-actor graph.
type WorkloadJSON struct {
	Name    string `json:"name"`
	Width   int    `json:"width,omitempty"`
	Height  int    `json:"height,omitempty"`
	Frames  int    `json:"frames,omitempty"`
	Quality int    `json:"quality,omitempty"`
	// Sequence selects the test sequence (gradient, plasma, synthetic,
	// ...); empty selects gradient.
	Sequence string `json:"sequence,omitempty"`
}

// FlowRequestJSON asks for one end-to-end flow run (Figure 1).
type FlowRequestJSON struct {
	// AppXML is an inline application model in the SDF3-style XML
	// format; Workload selects a built-in generator instead. Exactly one
	// must be set. XML models are analysis-only (no executable actors),
	// so they cannot be combined with Iterations > 0.
	AppXML   string        `json:"appXML,omitempty"`
	Workload *WorkloadJSON `json:"workload,omitempty"`
	// ArchXML is an inline architecture model; when empty a platform
	// with Tiles tiles and the given interconnect ("fsl" or "noc") is
	// generated from the template.
	ArchXML      string `json:"archXML,omitempty"`
	Tiles        int    `json:"tiles,omitempty"`
	Interconnect string `json:"interconnect,omitempty"`
	// Iterations to execute on the platform simulator; zero analyzes
	// without executing.
	Iterations int    `json:"iterations,omitempty"`
	RefActor   string `json:"refActor,omitempty"`
	UseCA      bool   `json:"useCA,omitempty"`
	// Faults injects a deterministic fault scenario into the platform
	// execution; a tile fail-stop triggers degraded-mode re-mapping onto
	// the surviving tiles, reported in the response's degraded section.
	Faults *faults.Spec `json:"faults,omitempty"`
	// TargetThroughput (iterations/cycle) is the constraint the degraded
	// mode is checked against; zero checks against the original bound.
	TargetThroughput float64 `json:"targetThroughput,omitempty"`
}

// AnalyzeRequestJSON asks for the SDF3-side graph analyses.
type AnalyzeRequestJSON struct {
	AppXML   string        `json:"appXML,omitempty"`
	Workload *WorkloadJSON `json:"workload,omitempty"`
	// TargetThroughput (iterations/cycle) additionally sizes buffers for
	// the constraint when positive.
	TargetThroughput float64 `json:"targetThroughput,omitempty"`
}

// DSERequestJSON asks for a design-space sweep.
type DSERequestJSON struct {
	AppXML        string        `json:"appXML,omitempty"`
	Workload      *WorkloadJSON `json:"workload,omitempty"`
	MinTiles      int           `json:"minTiles,omitempty"`
	MaxTiles      int           `json:"maxTiles,omitempty"`
	Interconnects []string      `json:"interconnects,omitempty"`
	WithCA        bool          `json:"withCA,omitempty"`
	// Solver replaces the greedy binder with the branch-and-bound
	// binding search per candidate platform; SolverNodeBudget bounds
	// each per-point search (0: exhaustive).
	Solver           bool  `json:"solver,omitempty"`
	SolverNodeBudget int64 `json:"solverNodeBudget,omitempty"`
	// Workers bounds the number of design points evaluated concurrently
	// (0 = the server default). Values outside 1..4×GOMAXPROCS are
	// rejected with 400 instead of spawning unbounded goroutines.
	Workers int `json:"workers,omitempty"`
}

// ThroughputJSON reports one throughput in both units of the paper.
type ThroughputJSON struct {
	ItersPerCycle float64 `json:"itersPerCycle"`
	// MCUsPerMcycle is the Figure 6 unit: iterations per 10^6 cycles.
	MCUsPerMcycle float64 `json:"mcusPerMcycle"`
}

// NewThroughputJSON converts iterations/cycle into the reporting pair.
func NewThroughputJSON(thr float64) ThroughputJSON {
	return ThroughputJSON{ItersPerCycle: thr, MCUsPerMcycle: flow.MCUsPerMegacycle(thr)}
}

// StepJSON is one Table 1 design-flow step.
type StepJSON struct {
	Name      string  `json:"name"`
	Automated bool    `json:"automated"`
	Micros    float64 `json:"micros"`
}

// StepsJSON converts the flow's step timings.
func StepsJSON(steps []flow.StepTiming) []StepJSON {
	out := make([]StepJSON, 0, len(steps))
	for _, s := range steps {
		out = append(out, StepJSON{Name: s.Name, Automated: s.Automated, Micros: float64(s.Elapsed.Microseconds())})
	}
	return out
}

// FlowResponseJSON is the result of one flow run.
type FlowResponseJSON struct {
	App          string         `json:"app"`
	Tiles        int            `json:"tiles"`
	Interconnect string         `json:"interconnect"`
	WorstCase    ThroughputJSON `json:"worstCase"`
	Expected     ThroughputJSON `json:"expected,omitempty"`
	Measured     ThroughputJSON `json:"measured,omitempty"`
	// Binding maps each actor to its tile index.
	Binding map[string]int `json:"binding"`
	Steps   []StepJSON     `json:"steps"`
	// Degraded reports the recovery after an injected tile fail-stop.
	Degraded *DegradedJSON `json:"degraded,omitempty"`
	// Cached reports that the response was served from the analysis
	// cache rather than computed for this request.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsedMS"`
}

// DegradedJSON is the degraded-mode section of a flow response: the
// failure, the re-mapping onto the surviving tiles, and whether the
// throughput constraint still holds there.
type DegradedJSON struct {
	FailedTile     string         `json:"failedTile"`
	FailCycle      int64          `json:"failCycle"`
	SurvivingTiles []string       `json:"survivingTiles"`
	WorstCase      ThroughputJSON `json:"worstCase"`
	Measured       ThroughputJSON `json:"measured"`
	ConstraintMet  bool           `json:"constraintMet"`
	Binding        map[string]int `json:"binding"`
	MigratedActors []string       `json:"migratedActors,omitempty"`
	MigrationBytes int64          `json:"migrationBytes"`
}

// NewFlowResponseJSON flattens a flow result into its wire form.
func NewFlowResponseJSON(res *flow.Result) FlowResponseJSON {
	g := res.Mapping.App.Graph
	binding := make(map[string]int, g.NumActors())
	for _, a := range g.Actors() {
		binding[a.Name] = res.Mapping.TileOf[a.ID]
	}
	resp := FlowResponseJSON{
		App:          res.Mapping.App.Name,
		Tiles:        len(res.Platform.Tiles),
		Interconnect: res.Platform.Interconnect.Kind.String(),
		WorstCase:    NewThroughputJSON(res.WorstCase),
		Expected:     NewThroughputJSON(res.Expected),
		Measured:     NewThroughputJSON(res.Measured),
		Binding:      binding,
		Steps:        StepsJSON(res.Steps),
	}
	if deg := res.Degraded; deg != nil {
		dj := &DegradedJSON{
			FailedTile:     deg.FailedTile,
			FailCycle:      deg.FailCycle,
			SurvivingTiles: deg.SurvivingTiles,
			WorstCase:      NewThroughputJSON(deg.WorstCase.Float()),
			Measured:       NewThroughputJSON(deg.Measured.Float()),
			ConstraintMet:  deg.ConstraintMet,
			MigratedActors: deg.MigratedActors,
			MigrationBytes: deg.MigrationBytes,
		}
		if deg.Mapping != nil {
			dj.Binding = make(map[string]int, g.NumActors())
			for _, a := range g.Actors() {
				dj.Binding[a.Name] = deg.Mapping.TileOf[a.ID]
			}
		}
		resp.Degraded = dj
	}
	return resp
}

// ActorJSON is one repetition-vector row.
type ActorJSON struct {
	Name        string `json:"name"`
	Repetitions int64  `json:"repetitions"`
	WCET        int64  `json:"wcet"`
}

// BufferJSON is one channel of a buffer distribution.
type BufferJSON struct {
	Channel string `json:"channel"`
	Tokens  int    `json:"tokens"`
	Bytes   int    `json:"bytes"`
}

// AnalyzeResponseJSON is the result of the graph analyses.
type AnalyzeResponseJSON struct {
	App              string         `json:"app"`
	Actors           int            `json:"actors"`
	Channels         int            `json:"channels"`
	RepetitionVector []ActorJSON    `json:"repetitionVector"`
	Throughput       ThroughputJSON `json:"throughput"`
	// TargetThroughput and Buffers are present when buffer sizing for a
	// constraint was requested; Achieved is the throughput the returned
	// distribution reaches.
	TargetThroughput float64        `json:"targetThroughput,omitempty"`
	Achieved         ThroughputJSON `json:"achieved,omitempty"`
	Buffers          []BufferJSON   `json:"buffers,omitempty"`
	Cached           bool           `json:"cached"`
	ElapsedMS        float64        `json:"elapsedMS"`
}

// RepetitionVectorJSON builds the repetition-vector rows of a graph.
func RepetitionVectorJSON(g *sdf.Graph) ([]ActorJSON, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	rows := make([]ActorJSON, 0, g.NumActors())
	for _, a := range g.Actors() {
		rows = append(rows, ActorJSON{Name: a.Name, Repetitions: q[a.ID], WCET: a.ExecTime})
	}
	return rows, nil
}

// DSEPointJSON is one explored platform configuration.
type DSEPointJSON struct {
	Label        string         `json:"label"`
	Tiles        int            `json:"tiles"`
	Interconnect string         `json:"interconnect"`
	CA           bool           `json:"ca,omitempty"`
	Throughput   ThroughputJSON `json:"throughput"`
	Slices       int            `json:"slices"`
	BRAMs        int            `json:"brams"`
	// EnergyPJ is the estimated energy per graph iteration at the
	// guaranteed throughput; AvgWatts the corresponding average power.
	EnergyPJ float64 `json:"energyPJ,omitempty"`
	AvgWatts float64 `json:"avgWatts,omitempty"`
	// SolverNodes/SolverPruned report the branch-and-bound effort when
	// the sweep ran with the solver enabled.
	SolverNodes  int64  `json:"solverNodes,omitempty"`
	SolverPruned int64  `json:"solverPruned,omitempty"`
	Pareto       bool   `json:"pareto,omitempty"`
	Error        string `json:"error,omitempty"`
}

// DSEResponseJSON is the result of a sweep.
type DSEResponseJSON struct {
	App       string         `json:"app"`
	Points    []DSEPointJSON `json:"points"`
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsedMS"`
}

// NewDSEResponseJSON flattens sweep points, marking the Pareto front.
func NewDSEResponseJSON(app string, points []dse.Point) DSEResponseJSON {
	onFront := make(map[string]bool)
	for _, p := range dse.ParetoFront(points) {
		onFront[p.Label()] = true
	}
	resp := DSEResponseJSON{App: app}
	for _, p := range points {
		pj := DSEPointJSON{
			Label:        p.Label(),
			Tiles:        p.Tiles,
			Interconnect: p.Interconnect.String(),
			CA:           p.UseCA,
			Throughput:   NewThroughputJSON(p.Throughput.Float()),
			Slices:       p.Area.Slices,
			BRAMs:        p.Area.BRAMs,
			EnergyPJ:     p.Energy.TotalPJ,
			AvgWatts:     p.Energy.AvgWatts,
			Pareto:       onFront[p.Label()],
		}
		if p.Solver != nil {
			pj.SolverNodes = p.Solver.NodesExpanded
			pj.SolverPruned = p.Solver.NodesPruned
		}
		if p.Err != nil {
			pj.Error = p.Err.Error()
		}
		resp.Points = append(resp.Points, pj)
	}
	return resp
}

// Fig6RowJSON is one bar group of the paper's Figure 6; throughputs are
// in the figure's unit, MCUs per 10^6 cycles.
type Fig6RowJSON struct {
	Sequence  string  `json:"sequence"`
	WorstCase float64 `json:"worstCase"`
	Expected  float64 `json:"expected"`
	Measured  float64 `json:"measured"`
}

// Table1RowJSON is one design-flow step of the paper's Table 1. Manual
// steps carry the paper's quoted effort instead of a measured time.
type Table1RowJSON struct {
	Step      string  `json:"step"`
	Automated bool    `json:"automated"`
	Micros    float64 `json:"micros,omitempty"`
	Quoted    string  `json:"quoted,omitempty"`
}

// ErrorJSON is the error envelope of the service. Beyond the message,
// structured failures carry a machine-readable classification so clients
// can react without parsing prose.
type ErrorJSON struct {
	Error string `json:"error"`
	// Kind classifies structured failures ("deadlock", "panic").
	Kind string `json:"kind,omitempty"`
	// Cycle and Report detail a platform deadlock (kind "deadlock").
	Cycle  int64  `json:"cycle,omitempty"`
	Report string `json:"report,omitempty"`
	// Draining marks a rejection from a server that is shutting down.
	Draining bool `json:"draining,omitempty"`
	// RetryAfterSec mirrors the Retry-After header for JSON-only clients.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
}

// EncodeJSON writes v as indented JSON, the output format of both the
// service and the -json command-line flags.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("modelio: encoding JSON: %w", err)
	}
	return nil
}

// DecodeJSON reads one JSON value, rejecting unknown fields so request
// typos fail loudly instead of silently selecting defaults.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("modelio: decoding JSON: %w", err)
	}
	return nil
}
