package manifest

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dvsim/internal/core"
	"dvsim/internal/sweep"
)

// Result pairs one expanded experiment with its outcome.
type Result struct {
	Experiment
	Outcome core.Outcome
}

// Run executes one sweep point through core.Simulate: a paper
// experiment or a topology graph under the line's resolved Params and
// frame bound. The run is deterministic for a fixed manifest. Resolve
// checked its spec, so only an Experiment assembled by hand can fail
// here; that panics, as core.RunExperiment does.
func (e Experiment) Run() core.Outcome {
	out, err := core.Simulate(context.Background(), e.Spec(), core.Sinks{})
	if err != nil {
		panic(fmt.Sprintf("manifest: line %d: %v", e.Line, err))
	}
	return out
}

// RunAll executes an expanded sweep through the all-core worker pool
// (workers ≤ 0 selects GOMAXPROCS). Results come back in sweep order
// regardless of scheduling, so aggregated output is byte-deterministic.
func RunAll(exps []Experiment, workers int) []Result {
	return sweep.Run(exps, workers, func(e Experiment) Result {
		return Result{Experiment: e, Outcome: e.Run()}
	})
}

// Row is the flat aggregation schema: one line of the sweep's CSV, one
// object of its JSONL. Seed fields render as strings so an unseeded
// line is visibly blank rather than a fake zero.
type Row struct {
	Index      int     `json:"index"`
	Line       int     `json:"line"`
	Label      string  `json:"label"`
	Experiment string  `json:"experiment,omitempty"`
	Topology   string  `json:"topology,omitempty"`
	Nodes      int     `json:"nodes"`
	Seed       string  `json:"seed,omitempty"`
	RunSeed    string  `json:"run_seed,omitempty"`
	Governor   string  `json:"governor,omitempty"`
	Frames     int     `json:"frames"`
	BatteryH   float64 `json:"battery_life_h"`
	WallH      float64 `json:"wall_h"`
	Dropped    int     `json:"frames_dropped"`
	Drops      int     `json:"fault_drops"`
	Garbles    int     `json:"fault_garbles"`
	Crashes    int     `json:"fault_crashes"`
	Restarts   int     `json:"fault_restarts"`
	EnergyMAh  float64 `json:"energy_mah_per_frame"`
	Checked    int     `json:"assertions_run"`
	Violations int     `json:"violations"`
}

// RowOf flattens one result.
func RowOf(r Result) Row {
	row := Row{
		Index:      r.Index,
		Line:       r.Line,
		Label:      r.Label,
		Experiment: string(r.ID),
		Topology:   r.Kind,
		Nodes:      r.Outcome.Nodes,
		Governor:   r.Outcome.Governor,
		Frames:     r.Outcome.Frames,
		BatteryH:   r.Outcome.BatteryLifeH,
		WallH:      r.Outcome.WallH,
		Dropped:    r.Outcome.FramesDropped,
		Drops:      r.Outcome.FaultStats.Drops,
		Garbles:    r.Outcome.FaultStats.Garbles,
		Crashes:    r.Outcome.FaultStats.Crashes,
		Restarts:   r.Outcome.FaultStats.Restarts,
		EnergyMAh:  r.Outcome.EnergyPerFrameMAh(),
		Checked:    r.Outcome.AssertionsRun,
		Violations: r.Outcome.ViolationTotal,
	}
	if r.Seeded {
		row.Seed = strconv.FormatUint(r.Seed, 10)
		row.RunSeed = strconv.FormatUint(r.RunSeed, 10)
	}
	return row
}

// csvHeader must stay in field order with Row.
var csvHeader = []string{
	"index", "line", "label", "experiment", "topology", "nodes",
	"seed", "run_seed", "governor", "frames", "battery_life_h", "wall_h",
	"frames_dropped", "fault_drops", "fault_garbles", "fault_crashes",
	"fault_restarts", "energy_mah_per_frame", "assertions_run", "violations",
}

// CSV renders an aggregated sweep table, one row per experiment in
// sweep order. Floats use the shortest exact representation, so the
// output is byte-deterministic.
func CSV(results []Result) string {
	rows := make([]Row, len(results))
	for i, r := range results {
		rows[i] = RowOf(r)
	}
	return RowsCSV(rows)
}

// RowsCSV renders pre-flattened rows — the entry for callers that
// re-derive rows from cached outcomes instead of fresh results (the
// simulation service), producing bytes identical to CSV on the same
// sweep.
func RowsCSV(rows []Row) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(csvHeader)
	for _, row := range rows {
		w.Write([]string{
			strconv.Itoa(row.Index),
			strconv.Itoa(row.Line),
			row.Label,
			row.Experiment,
			row.Topology,
			strconv.Itoa(row.Nodes),
			row.Seed,
			row.RunSeed,
			row.Governor,
			strconv.Itoa(row.Frames),
			formatFloat(row.BatteryH),
			formatFloat(row.WallH),
			strconv.Itoa(row.Dropped),
			strconv.Itoa(row.Drops),
			strconv.Itoa(row.Garbles),
			strconv.Itoa(row.Crashes),
			strconv.Itoa(row.Restarts),
			formatFloat(row.EnergyMAh),
			strconv.Itoa(row.Checked),
			strconv.Itoa(row.Violations),
		})
	}
	w.Flush()
	return b.String()
}

// WriteJSONL streams the aggregated sweep as JSON Lines, one object
// per experiment in sweep order — the machine-readable twin of CSV.
func WriteJSONL(w io.Writer, results []Result) error {
	rows := make([]Row, len(results))
	for i, r := range results {
		rows[i] = RowOf(r)
	}
	return WriteRowsJSONL(w, rows)
}

// WriteRowsJSONL streams pre-flattened rows as JSON Lines; the twin of
// RowsCSV.
func WriteRowsJSONL(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
