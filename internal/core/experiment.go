package core

import (
	"context"
	"fmt"
	"math/bits"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
)

// ID names one of the paper's experiments (§6).
type ID string

// The experiment suite of §6.
const (
	Exp0A ID = "0A" // single node, no I/O, full speed
	Exp0B ID = "0B" // single node, no I/O, half speed
	Exp1  ID = "1"  // baseline: single node with host I/O
	Exp1A ID = "1A" // DVS during I/O
	Exp2  ID = "2"  // distributed DVS by partitioning
	Exp2A ID = "2A" // distributed DVS during I/O
	Exp2B ID = "2B" // distributed DVS with power-failure recovery
	Exp2C ID = "2C" // distributed DVS with node rotation
	// Exp2D extends the suite beyond the paper: the 2B recovery
	// configuration under injected link faults (internal/fault), with
	// bounded retransmission recovering dropped and garbled transfers.
	Exp2D ID = "2D"
)

// AllExperiments lists the suite in the paper's order, with the
// fault-recovery extension 2D last.
var AllExperiments = []ID{Exp0A, Exp0B, Exp1, Exp1A, Exp2, Exp2A, Exp2B, Exp2C, Exp2D}

// Fig10Experiments lists the experiments the paper's Fig 10 charts
// (0A/0B are excluded: without I/O or a performance constraint they are
// "not to be compared with other experiments", §6.1).
var Fig10Experiments = []ID{Exp1, Exp1A, Exp2, Exp2A, Exp2B, Exp2C}

// Label returns the paper's caption for an experiment, or the id
// itself for one without a caption.
func Label(id ID) string {
	if x := experiments[id]; x.label != "" {
		return x.label
	}
	return string(id)
}

// PaperHours returns the battery life the paper reports, for comparison
// tables (§6); 0 where it reports none.
func PaperHours(id ID) float64 { return experiments[id].paperH }

// PaperFrames returns the completed workload the paper reports.
func PaperFrames(id ID) int { return experiments[id].paperF }

// NodeStat summarizes one node after a run.
type NodeStat struct {
	Name            string
	DiedAtH         float64 // 0 when the battery survived the run
	FramesProcessed int
	ResultsSent     int
	Rotations       int
	Migrations      int
	Crashes         int // injected crash outages
	Restarts        int // recoveries from injected crashes
	FramesAbandoned int // frames written off after a spent retransmit budget
	// Governor accounting (all zero on ungoverned runs).
	GovDecisions   int     // frame-boundary governor decisions taken
	GovSwitches    int     // decisions that changed the operating point
	DeadlineMisses int     // frames whose busy time exceeded the budget D
	GovMeanMHz     float64 // mean decided compute clock
	DeliveredMAh   float64
	FinalSoC       float64
	// Per-mode seconds.
	IdleS, CommS, ComputeS float64
	// Per-mode charge, mAh (§4.4's energy split).
	IdleMAh, CommMAh, ComputeMAh float64
}

// Outcome is the result of one experiment run.
type Outcome struct {
	ID    ID
	Label string
	// Governor names the online DVS policy the run was governed by
	// (governor.Spec.String()); empty on ungoverned runs.
	Governor string
	Nodes    int
	// Frames is F(N): results delivered to the host (or frames computed,
	// for the no-I/O experiments).
	Frames int
	// BatteryLifeH is T(N) = F(N)·D (§4.5) for I/O experiments, or the
	// actual run time for the no-I/O ones.
	BatteryLifeH float64
	// WallH is the simulated time at which the system stopped producing.
	WallH float64
	// TnormH and Rnorm are filled by RunSuite (Rnorm needs T(1)).
	TnormH float64
	Rnorm  float64
	// FramesDropped counts source frames no node accepted in time.
	FramesDropped int
	// Events is the number of kernel events the run fired — the
	// denominator of the benchmark harness's events/sec throughput.
	Events uint64
	// FaultStats counts the faults an active scenario injected; zero
	// when the run had no fault injection.
	FaultStats fault.Stats
	NodeStats  []NodeStat
	// PortStats is the per-port transfer accounting of the run's serial
	// network, sorted by port name.
	PortStats []PortStat
	// Metrics is the run's instrumentation snapshot; empty unless the
	// run was instrumented: with Sinks.Metrics, and implicitly for a
	// logged or assertion-checked run, whose sample records it holds.
	Metrics metrics.Snapshot
	// Violations are the assertion-catalog failures of a checked run in
	// canonical order, capped per assertion (see internal/assert); nil
	// when no catalog was configured. AssertionsRun counts the
	// invariants evaluated and ViolationTotal every violation detected,
	// truncated ones included — a checked, clean run has
	// AssertionsRun > 0 and ViolationTotal == 0.
	Violations     []assert.Violation
	AssertionsRun  int
	ViolationTotal int
	// Records is the number of records written to Sinks.Log. It
	// describes the log, not the simulation, so it is not serialized.
	Records int `json:"-"`
}

// PortStat is one serial port's transfer accounting after a run.
type PortStat struct {
	Port string
	serial.PortStats
}

// DefaultFaultScenario is experiment 2D's built-in link-fault load: a
// seeded 2% drop / 1% garble rate on every link, which the default
// retransmit budget absorbs almost entirely. Override it with
// Params.Faults (dvsim -faults).
func DefaultFaultScenario() *fault.Scenario {
	return &fault.Scenario{
		Seed:  42,
		Links: []fault.LinkFault{{DropRate: 0.02, GarbleRate: 0.01}},
	}
}

// DefaultSamplePeriodS is the telemetry sampling cadence when the
// caller does not choose one: fine enough to draw the paper's ~15 h
// discharge curves (§6), coarse enough to stay out of the event-queue
// hot path.
const DefaultSamplePeriodS = 60.0

// DefaultTelemetryWindowS is a telemetry run's window when the caller
// gives none (dvsim -until 0, a dvsimd envelope without until_s): 30
// simulated hours, past every battery death.
const DefaultTelemetryWindowS = 30 * 3600

// A Setting is one run setting a front end can give an experiment: a
// dvsim flag, a runfile column and a dvsimd envelope field, each named
// as String spells it. Settings combine as a bit set.
type Setting uint8

const (
	Rotation   Setting = 1 << iota // Params.RotationPeriod
	Governor                       // Params.Governor
	Faults                         // Params.Faults
	Frames                         // Spec.Frames
	FrameDelay                     // Params.FrameDelayS, "d"
	Assertions                     // Params.Assertions, "assert"
)

// String names the lowest setting in s, which must not be empty.
func (s Setting) String() string {
	names := [...]string{"rotation", "governor", "faults", "frames", "d", "assert"}
	return names[bits.TrailingZeros8(uint8(s))]
}

// experiment is one row of the experiments table.
type experiment struct {
	label string // the paper's caption
	nodes int
	// faults is the fault load the experiment injects when
	// Params.Faults is nil; nil for a clean wire.
	faults func() *fault.Scenario
	// reads is every setting that can change the run.
	reads Setting
	// paperH and paperF are the battery life and frames the paper
	// reports (§6); zero for the experiments beyond it.
	paperH float64
	paperF int
}

// pipelineReads is what a pipeline experiment reads: all but rotation,
// which only 2C's ring uses (§6.7).
const pipelineReads = Governor | Faults | Frames | FrameDelay | Assertions

// experiments is the one table of what each experiment is beyond its
// stages: its caption, node count, built-in fault load, the settings
// it reads and the paper's numbers. The no-I/O experiments have no
// link, frame source or frame deadline, so they read only an assertion
// catalog. plan takes the rotation period and the fault load from
// here, CheckSettings refuses for every front end a setting the named
// runs do not read, and TestSettingsTableExact holds each row's reads
// to the engine.
var experiments = map[ID]experiment{
	// caption, nodes, built-in faults, reads, paper hours, paper frames
	Exp0A: {"No I/O, full speed", 1, nil, Assertions, 3.4, 11500},
	Exp0B: {"No I/O, half speed", 1, nil, Assertions, 12.9, 22500},
	Exp1:  {"Baseline", 1, nil, pipelineReads, 6.13, 9600},
	Exp1A: {"DVS during I/O", 1, nil, pipelineReads, 7.6, 11900},
	Exp2:  {"Distributed DVS with partitioning", 2, nil, pipelineReads, 14.1, 22100},
	Exp2A: {"Distributed DVS during I/O", 2, nil, pipelineReads, 14.44, 22600},
	Exp2B: {"Distributed DVS with power failure recovery", 2, nil, pipelineReads, 15.72, 24500},
	Exp2C: {"Distributed DVS with node rotation", 2, nil, pipelineReads | Rotation, 17.82, 27900},
	Exp2D: {"Distributed DVS recovery under link faults", 2, DefaultFaultScenario, pipelineReads, 0, 0},
	Exp3A: {"", 2, nil, pipelineReads, 0, 0},
}

// lookup returns the experiment's row, or the error for an unknown id.
func lookup(id ID) (experiment, error) {
	x, ok := experiments[id]
	if !ok {
		return x, specErr("unknown experiment %q", id)
	}
	return x, nil
}

// Nodes returns the experiment's node count; 0 for an unknown one.
func (id ID) Nodes() int { return experiments[id].nodes }

// FaultLoad returns the fault scenario a run injects under
// Params.Faults sc: sc itself, or when sc is nil the experiment's
// built-in load (2D's DefaultFaultScenario). Custom runs (id "") and
// the other experiments have none built in.
func (id ID) FaultLoad(sc *fault.Scenario) *fault.Scenario {
	if f := experiments[id].faults; sc == nil && f != nil {
		return f()
	}
	return sc
}

// CheckSettings refuses a setting that none of the experiments reads,
// or an unknown experiment, with an error wrapping ErrBadSpec. Every
// front end calls it before it runs, so a setting that would leave the
// output unchanged is an error, never a second name for the same run.
func CheckSettings(set Setting, ids ...ID) error {
	var reads Setting
	for _, id := range ids {
		x, err := lookup(id)
		if err != nil {
			return err
		}
		reads |= x.reads
	}
	if unread := set &^ reads; unread != 0 {
		if len(ids) == 1 {
			return specErr("experiment %s does not read %s", ids[0], unread)
		}
		return specErr("no experiment of %v reads %s", ids, unread)
	}
	return nil
}

// stagesFor derives the per-node configuration of a pipeline
// experiment: its stages, and whether the recovery protocol is on.
func stagesFor(id ID, p Params) (stages []StageConfig, ack bool, err error) {
	switch id {
	case Exp1:
		return []StageConfig{
			{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint},
		}, false, nil
	case Exp1A:
		return []StageConfig{
			{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MinPoint},
		}, false, nil
	}
	s, err := p.BestTwoNodeScheme()
	if err != nil {
		return nil, false, specErr("experiment %s: %v", id, err)
	}
	s0, s1 := s.Stages[0], s.Stages[1]
	switch id {
	case Exp2:
		return []StageConfig{
			{Span: s0.Span, Compute: s0.Compute, Comm: s0.Compute},
			{Span: s1.Span, Compute: s1.Compute, Comm: s1.Compute},
		}, false, nil
	case Exp2A, Exp2C:
		// 2C is 2A on a ring that rotates the roles (plan sets the
		// period).
		return []StageConfig{
			{Span: s0.Span, Compute: s0.Compute, Comm: cpu.MinPoint},
			{Span: s1.Span, Compute: s1.Compute, Comm: cpu.MinPoint},
		}, false, nil
	case Exp2B, Exp2D:
		// §6.6: with the recovery protocol's extra transactions both
		// nodes run faster — the paper operates them at 73.7 and 118 MHz
		// — and DVS during I/O stays on. 2D is the same configuration
		// with the wire made hostile (see DefaultFaultScenario).
		return []StageConfig{
			{Span: s0.Span, Compute: cpu.PointAt(73.7), Comm: cpu.MinPoint},
			{Span: s1.Span, Compute: cpu.PointAt(118.0), Comm: cpu.MinPoint},
		}, true, nil
	default: // Exp3A
		// The experiment-2 partition with both compute clocks started
		// at the full 206.4 MHz; the governor has to find the savings.
		if !p.Governor.Enabled() {
			return nil, false, specErr("experiment 3A needs a governor (set Params.Governor)")
		}
		return []StageConfig{
			{Span: s0.Span, Compute: cpu.MaxPoint, Comm: cpu.MinPoint},
			{Span: s1.Span, Compute: cpu.MaxPoint, Comm: cpu.MinPoint},
		}, false, nil
	}
}

// Native carries the real-workload hooks for native pipeline execution:
// the scene generating input frames and the ATR pipeline computing each
// stage. Payloads then genuinely flow node to node; timing and energy
// still follow the calibrated profile.
type Native struct {
	Scene *atr.Scene
	Pipe  *atr.Pipeline
}

// StageConfig describes one stage of a custom pipeline: its block span
// and the operating points for computation, communication and (optional,
// defaulting to Comm) idle. RefS and OutKB, when positive, override the
// profile-driven work model with synthetic per-stage reference seconds
// and output size — the hook internal/topology uses to build serial
// chains longer than the ATR profile's four blocks.
type StageConfig struct {
	Span    atr.Span
	Compute cpu.OperatingPoint
	Comm    cpu.OperatingPoint
	Idle    cpu.OperatingPoint
	RefS    float64
	OutKB   float64
}

// StagesFromPartition converts a feasible Partition into stage configs,
// optionally dropping the communication clock to the minimum point (DVS
// during I/O).
func StagesFromPartition(pt Partition, dvsDuringIO bool) []StageConfig {
	out := make([]StageConfig, len(pt.Stages))
	for i, s := range pt.Stages {
		if !s.Feasible {
			panic(fmt.Sprintf("core: stage %d infeasible (%v needs %.0f MHz)", i+1, s.Span, s.RequiredMHz))
		}
		comm := s.Compute
		if dvsDuringIO {
			comm = cpu.MinPoint
		}
		out[i] = StageConfig{Span: s.Span, Compute: s.Compute, Comm: comm}
	}
	return out
}

// RunSuite executes the given experiments and fills the normalized
// metrics (§4.5): Tnorm(N) = T(N)/N and Rnorm(N) = Tnorm(N)/T(1). The
// baseline is run if not already in the list. Experiments run
// concurrently on up to workers goroutines (≤ 0 selects GOMAXPROCS);
// each is an independent deterministic simulation and results are
// returned in input order, so the output is identical to a serial
// evaluation. The first failing experiment's error is returned.
func RunSuite(ids []ID, p Params, workers int) ([]Outcome, error) {
	specs := make([]Spec, len(ids))
	for i, id := range ids {
		specs[i] = Spec{ID: id, Params: p}
	}
	outs, err := simulateAll(specs, workers)
	if err != nil {
		return nil, err
	}
	var t1 float64
	for _, o := range outs {
		if o.ID == Exp1 {
			t1 = o.BatteryLifeH
		}
	}
	if t1 == 0 {
		// The implicit baseline exists purely to anchor Rnorm; it runs
		// fault-free and unchecked so a scenario or catalog aimed at the
		// pipeline under test does not distort (or slow) the reference
		// lifetime.
		pb := p
		pb.Faults = nil
		pb.Assertions = nil
		base, err := Simulate(context.Background(), Spec{ID: Exp1, Params: pb}, Sinks{})
		if err != nil {
			return nil, err
		}
		t1 = base.BatteryLifeH
	}
	for i := range outs {
		outs[i].TnormH = outs[i].BatteryLifeH / float64(outs[i].Nodes)
		outs[i].Rnorm = outs[i].TnormH / t1
	}
	return outs, nil
}
