package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"dvsim/internal/assert"
	"dvsim/internal/chunk"
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
	// Graph describes a fleet (see internal/topology). A chain runs as
	// the host-paced pipeline, exactly like the equivalent Stages; any
	// other shape wires the same nodes as graph vertices, whose sources
	// pace themselves and whose sinks deliver to the host.
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
	// (time, event kind, labels; DESIGN.md §6): every mode span
	// ("mode"), node death ("death"), governor decision ("govern"),
	// injected fault and retransmission ("fault", "retry"), serial
	// transaction ("link"), result and its end-to-end latency
	// ("result", "latency"), the sampler series ("sample") and, with
	// Params.Assertions set, every violation ("violation"). An
	// assertion catalog checks the same records whether or not a log
	// is written.
	Log io.Writer
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
	running.Add(1)
	defer running.Add(-1)
	out, m, err := simulate(ctx, s, sk)
	if err == nil && sk.Log != nil {
		out.Records, err = writeLog(sk.Log, m, running.Load() == 1)
	}
	return out, err
}

// running counts the Simulate calls in flight in the process. A log is
// encoded on more than one core only while its run is the only one, so
// callers that already run simulations side by side (Monte Carlo forks,
// the service's worker pool, a parallel suite) keep their cores.
var running atomic.Int32

// simulate is Simulate up to the log: it returns the outcome and, when
// sk.Log is set, the merge the log is written from.
func simulate(ctx context.Context, s Spec, sk Sinks) (Outcome, *merger, error) {
	pl, err := s.plan()
	if err != nil {
		return Outcome{}, nil, err
	}
	eng := pl.assertions
	if err := ctx.Err(); err != nil {
		return Outcome{}, nil, err
	}
	// A log or a catalog needs the event stream, and both read the same
	// records.
	var rc *recorder
	if sk.Log != nil || eng != nil {
		rc = &recorder{}
		pl.onGovern = func(node string, ev governor.Event) { rc.govern.Append(governEvent{node, ev}) }
	}
	pl.trace = rc != nil || sk.Traces != nil
	pl.instrument = sk.Metrics || rc != nil
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
		return Outcome{}, nil, err
	}
	if pl.trace {
		// Finishing the metering settles the last segment, which may
		// kill a node: the traces and DeadAt are read only afterwards.
		for _, n := range r.nodes {
			n.Power().Finish()
		}
	}
	if sk.Traces != nil {
		*sk.Traces = r.traces()
	}
	out := r.outcome(&pl)
	if rc == nil {
		return out, nil, nil
	}
	// One merge over the run's records serves both consumers: a pass
	// feeds the assertion engine, and a pass, with the verdicts as one
	// more source, encodes the log.
	m := rc.merge(r, out.Metrics.Series)
	if eng != nil {
		out.Violations = evalAssertions(eng, m)
		out.AssertionsRun = eng.Evaluated()
		out.ViolationTotal = eng.Total()
		if sk.Log != nil && len(out.Violations) > 0 {
			// The log orders the verdicts by lessRecord; sort a copy, so
			// Outcome.Violations keeps the engine's canonical order.
			var vs chunk.List[assert.Violation]
			for _, v := range out.Violations {
				vs.Append(v)
			}
			m.srcs = append(m.srcs, bucket("violation", &vs, violationRecord))
		}
	}
	return out, m, nil
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

// Check returns the error Simulate would return for the spec before it
// runs anything, or nil: an unknown experiment, 3A without a governor,
// a platform with no feasible partition for the experiment, a bad
// governor or assertion catalog. Every such error wraps ErrBadSpec.
func (s Spec) Check() error {
	_, err := s.plan()
	return err
}

// plan resolves the spec onto an engine, rejecting what cannot run.
func (s *Spec) plan() (plan, error) {
	p := s.Params
	pl := plan{p: p, maxFrames: s.Frames, ack: s.Ack, native: s.Native, faults: p.Faults}
	if s.Frames < 0 || s.UntilS < 0 {
		return pl, specErr("negative bound (frames %d, until %v s)", s.Frames, s.UntilS)
	}
	if err := p.Governor.Validate(); err != nil {
		return pl, specErr("%v", err)
	}
	var err error
	if pl.assertions, err = assert.New(p.Assertions); err != nil {
		return pl, specErr("%v", err)
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
		x, err := lookup(s.ID)
		if err != nil {
			return pl, err
		}
		pl.id, pl.label, pl.faults = s.ID, x.label, s.ID.FaultLoad(p.Faults)
		if x.reads&Rotation != 0 {
			pl.rotation = p.RotationPeriod
		}
		switch s.ID {
		case Exp0A, Exp0B:
			pl.noIO, pl.at = true, cpu.MaxPoint
			if s.ID == Exp0B {
				pl.at = cpu.PointAt(103.2)
			}
			return pl, nil
		case Exp3A:
			pl.label = "Governor study: " + p.Governor.String()
		}
		pl.stages, pl.ack, err = stagesFor(s.ID, p)
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

// RunTelemetry writes the event log of an experiment's first until
// seconds to w and returns the record count. Kept for the benchmark
// probe, like Run.
func RunTelemetry(id ID, p Params, until float64, w io.Writer) (int, error) {
	out, err := Simulate(context.Background(), Spec{ID: id, Params: p, UntilS: until}, Sinks{Log: w})
	return out.Records, err
}
