package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"dvsim/internal/assert"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/node"
	"dvsim/internal/sim"
	"dvsim/internal/sweep"
	"dvsim/internal/topology"
)

// Spec is one resolved run: what to simulate, on which platform, and
// for how long. Exactly one of ID, Stages and Graph names the system.
type Spec struct {
	// ID selects a paper experiment (0A…2D), or 3A — the governor
	// study's pipeline under the single policy in Params.Governor.
	ID ID
	// Stages describes a custom pipeline: one node per stage, frames
	// paced every Params.FrameDelayS, each node on its own battery.
	Stages []StageConfig
	// Graph describes a fleet (see internal/topology). A chain runs on
	// the pipeline engine, exactly like the equivalent Stages; any
	// other shape runs on the graph worker engine.
	Graph *topology.Graph
	// Label names a Stages or Graph run in its Outcome.
	Label string
	// Ack enables the power-failure recovery protocol, defined for
	// two-node pipelines (experiments 2B and 2D carry it built in).
	Ack bool
	// Native runs the real ATR computation through a pipeline.
	Native *Native
	// Params is the platform and the whole run configuration: faults,
	// governor, assertion catalog and rotation period are read from
	// here and nowhere else.
	Params Params
	// Frames bounds the run to that many frames; 0 runs to battery
	// exhaustion. The no-I/O experiments have no frame source to bound.
	Frames int
	// UntilS, when positive, ends the run at that simulated instant
	// instead of at the stop conditions.
	UntilS float64
}

// Sinks are a run's optional outputs. The zero value observes nothing
// and costs nothing.
type Sinks struct {
	// Log receives the run's events as JSON lines in canonical order
	// (time, event kind, labels; DESIGN.md §6).
	Log io.Writer
	// Telemetry selects the full log vocabulary: on top of the plain
	// "mode", "result", "death" and "govern" events, every serial
	// transaction ("link"), each result's end-to-end latency
	// ("latency"), the sampler series ("sample"), injected faults and
	// retransmissions ("fault", "retry") and, with Params.Assertions
	// set, every violation ("violation").
	Telemetry bool
	// Metrics attaches the metrics registry: the kernel, serial
	// network, nodes, batteries and host record into it, periodic
	// samplers track battery state and queue depths, and the snapshot
	// lands in Outcome.Metrics.
	Metrics bool
	// Traces, when non-nil, receives each node's constant-power mode
	// spans — the material of the paper's timing diagrams (Figs 2, 3
	// and 9).
	Traces *[][]node.ModeSpan
	// OnResult observes each result as it reaches the host (frame
	// number and, for native runs, the decoded payload).
	OnResult func(frame int, payload any)
	// OnGovern observes every governor decision.
	OnGovern func(node string, ev governor.Event)
}

// ErrBadSpec marks a Spec that cannot be simulated: an unknown
// experiment, a missing or contradictory system description, or an
// option the chosen engine does not support.
var ErrBadSpec = errors.New("core: bad run spec")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// cancelPollEvents is how many kernel events run between context polls
// of a cancellable run: coarse enough to cost nothing on the hot path
// (one nil-check per event, one poll per few thousand), fine enough to
// abandon a run within milliseconds of cancellation.
const cancelPollEvents = 4096

// Simulate runs one spec and returns its outcome. It is the one run
// entry point: paper experiments, custom pipelines and fleets, bounded
// or windowed, with any combination of sinks. Runs are deterministic,
// and observing a run never changes it.
//
// A context with a Done channel is polled every few thousand kernel
// events (sim.Kernel.SetCancelCheck: the poll perturbs neither event
// ordering nor output bytes); an expired context abandons the run and
// returns its error with nothing written to the log. Spec errors wrap
// ErrBadSpec. A failed log write returns the outcome with the error,
// Outcome.Records counting the records that fully reached the writer.
func Simulate(ctx context.Context, s Spec, sk Sinks) (Outcome, error) {
	pl, err := s.plan()
	if err != nil {
		return Outcome{}, err
	}
	eng, err := assert.New(s.Params.Assertions)
	if err != nil {
		return Outcome{}, specErr("%v", err)
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	// A log or a catalog needs the event stream. A catalog always sees
	// the full vocabulary unless the log asked for the plain one.
	var rc *recorder
	if sk.Log != nil || eng != nil {
		full := sk.Telemetry || sk.Log == nil
		horizon := s.UntilS
		if horizon <= 0 {
			horizon = float64(s.Frames) * s.Params.FrameDelayS
		}
		rc = newRecorder(full, estimateRecords(s.Params, pl.nodes(), horizon, full))
		pl.onGovern = rc.governHook(sk.OnGovern)
	} else {
		pl.onGovern = sk.OnGovern
	}
	pl.trace = rc != nil || sk.Traces != nil
	pl.instrument = sk.Metrics || rc != nil && rc.telemetry
	r := pl.build()
	r.onResult = sk.OnResult
	if rc != nil {
		rc.attach(r)
	}
	if ctx.Done() != nil {
		r.k.SetCancelCheck(cancelPollEvents, func() bool { return ctx.Err() != nil })
	}
	r.start()
	if s.UntilS > 0 {
		r.k.RunUntil(sim.Time(s.UntilS))
	} else {
		r.k.Run()
	}
	if err := ctx.Err(); err != nil {
		r.release()
		rc.release()
		return Outcome{}, err
	}
	var records []LogRecord
	if rc != nil {
		records = rc.collect(r)
	}
	if sk.Traces != nil {
		*sk.Traces = r.traces()
	}
	out := r.outcome(&pl)
	r.release()
	if eng != nil {
		out.Violations = evalAssertions(eng, records)
		out.AssertionsRun = eng.Evaluated()
		out.ViolationTotal = eng.Total()
		if sk.Log != nil {
			records = withViolations(records, out.Violations)
		}
	}
	if sk.Log != nil {
		out.Records, err = writeLog(sk.Log, records)
	}
	rc.release()
	return out, err
}

// simulateAll runs the specs on up to workers goroutines (≤ 0 selects
// GOMAXPROCS) and returns their outcomes in input order — identical to
// a serial evaluation, since every run is an independent deterministic
// simulation — or the first failing spec's error.
func simulateAll(specs []Spec, workers int) ([]Outcome, error) {
	type result struct {
		out Outcome
		err error
	}
	res := sweep.Run(specs, workers, func(s Spec) result {
		out, err := Simulate(context.Background(), s, Sinks{})
		return result{out, err}
	})
	outs := make([]Outcome, len(res))
	for i, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		outs[i] = r.out
	}
	return outs, nil
}

// plan resolves the spec onto an engine, rejecting what cannot run.
func (s *Spec) plan() (plan, error) {
	p := s.Params
	pl := plan{p: p, maxFrames: s.Frames, ack: s.Ack, native: s.Native, faults: p.Faults}
	if s.Frames < 0 || s.UntilS < 0 {
		return pl, specErr("negative bound (frames %d, until %v s)", s.Frames, s.UntilS)
	}
	systems := 0
	for _, set := range []bool{s.ID != "", len(s.Stages) > 0, s.Graph != nil} {
		if set {
			systems++
		}
	}
	if systems != 1 {
		return pl, specErr("want exactly one of an experiment, stages or a graph, got %d", systems)
	}

	if s.ID != "" {
		if s.Ack || s.Native != nil {
			return pl, specErr("ack and native apply to custom pipelines, not experiment %s", s.ID)
		}
		pl.id, pl.label = s.ID, Label(s.ID)
		switch s.ID {
		case Exp0A, Exp0B:
			pl.noIO, pl.at, pl.maxFrames, pl.faults = true, cpu.MaxPoint, 0, nil
			if s.ID == Exp0B {
				pl.at = cpu.PointAt(103.2)
			}
			return pl, nil
		case Exp2D:
			if pl.faults == nil {
				pl.faults = DefaultFaultScenario()
			}
		case Exp3A:
			pl.label = "Governor study: " + p.Governor.String()
		}
		var err error
		pl.stages, pl.ack, pl.rotation, err = stagesFor(s.ID, p)
		return pl, err
	}

	pl.id, pl.label, pl.rotation = ID(s.Label), s.Label, p.RotationPeriod
	stages := s.Stages
	if g := s.Graph; g != nil {
		if err := g.Validate(); err != nil {
			return pl, specErr("invalid topology: %v", err)
		}
		chain := g.Chain()
		if chain == nil {
			if s.Ack || p.RotationPeriod > 1 || s.Native != nil {
				return pl, specErr("ack, rotation (Params.RotationPeriod %d) and native mode need a chain; this graph is not one", p.RotationPeriod)
			}
			pl.graph = g
			return pl, nil
		}
		stages = make([]StageConfig, len(chain))
		for i, ns := range chain {
			stages[i] = StageConfig{Compute: ns.Compute, Comm: ns.Comm, Idle: ns.Idle, RefS: ns.RefS, OutKB: ns.OutKB}
		}
	}
	if s.Ack && len(stages) != 2 {
		return pl, specErr("the recovery protocol is defined for two-node pipelines, not %d", len(stages))
	}
	pl.stages = stages
	return pl, nil
}

// Run executes one paper experiment to exhaustion. It panics on an
// unknown experiment; Simulate returns that as an error. Run stays
// alongside Simulate because the benchmark probe (perfbench/probe)
// compiles against it.
func Run(id ID, p Params) Outcome { return RunExperiment(id, p, 0) }

// RunExperiment is Run with a frame bound (0 runs to exhaustion). Kept
// for the benchmark probe, like Run.
func RunExperiment(id ID, p Params, maxFrames int) Outcome {
	out, err := Simulate(context.Background(), Spec{ID: id, Params: p, Frames: maxFrames}, Sinks{})
	if err != nil {
		panic(err)
	}
	return out
}

// RunTelemetry writes the full-vocabulary event log of an experiment's
// first until seconds to w and returns the record count. Kept for the
// benchmark probe, like Run.
func RunTelemetry(id ID, p Params, until float64, w io.Writer) (int, error) {
	out, err := Simulate(context.Background(), Spec{ID: id, Params: p, UntilS: until}, Sinks{Log: w, Telemetry: true})
	return out.Records, err
}
