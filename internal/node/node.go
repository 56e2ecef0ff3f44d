package node

import (
	"fmt"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// Role is one node's work: which ATR blocks to run, at which operating
// points, and how its input is paced and gathered. A pipeline's roles
// are global to the ring; node rotation moves nodes between roles
// without changing the roles themselves. A graph vertex holds one role
// (Index 1) for its whole life.
type Role struct {
	// Index is the 1-based pipeline position.
	Index int
	// Span is the contiguous block range this stage computes.
	Span atr.Span
	// Compute is the operating point for PROC.
	Compute cpu.OperatingPoint
	// Comm is the operating point for RECV/SEND; equal to Compute
	// unless DVS-during-I/O is enabled (§5.2).
	Comm cpu.OperatingPoint
	// Idle is the operating point while blocked with nothing to do; the
	// zero value falls back to Comm (the paper's workloads have no idle
	// time, so the distinction only matters for low-duty-cycle studies).
	Idle cpu.OperatingPoint
	// RefS, when positive, is the stage's per-frame reference compute
	// time (seconds at the maximum operating point), overriding the
	// profiled Span. It frees pipelines from the ATR profile's four
	// blocks: arbitrary-length chains built by internal/topology assign
	// synthetic per-stage work here. Zero keeps the profile-driven
	// timing, byte for byte.
	RefS float64
	// OutKB, when positive, overrides the profiled output size for the
	// stage's downstream transfer. Zero falls back to Prof.OutKB(Span).
	OutKB float64
	// BudgetS, when positive, overrides the governor's per-frame
	// deadline D. A wide-pipeline stage that sees every width-th frame
	// gets width·D.
	BudgetS float64
	// Rounds bounds a self-paced source's frame numbers to < Rounds
	// (0 = run until the battery dies).
	Rounds int
	// Stride and Phase select a self-paced source's frames: Phase,
	// Phase+Stride, … each at its frame time. Zero Stride means 1.
	Stride int
	Phase  int
	// FanInAll makes a node with several parents gather one message
	// from every parent before computing (aggregation); otherwise one
	// message from any parent suffices (round-robin distribution).
	FanInAll bool
}

// IdlePoint returns the role's idle operating point (Comm when unset).
func (r *Role) IdlePoint() cpu.OperatingPoint {
	if r.Idle == (cpu.OperatingPoint{}) {
		return r.Comm
	}
	return r.Idle
}

// stride is the role's source stride (1 when unset).
func (r *Role) stride() int {
	if r.Stride > 0 {
		return r.Stride
	}
	return 1
}

// refSeconds is the role's per-frame reference compute time: the
// explicit override when set, the profiled span otherwise.
func (n *Node) refSeconds(r *Role) float64 {
	if r.RefS > 0 {
		return r.RefS
	}
	return n.cfg.Prof.RefSeconds(r.Span)
}

// outKB is the role's downstream transfer size: the explicit override
// when set, the profiled span otherwise.
func (n *Node) outKB(r *Role) float64 {
	if r.OutKB > 0 {
		return r.OutKB
	}
	return n.cfg.Prof.OutKB(r.Span)
}

// Config is the behavior shared by all nodes of a run.
type Config struct {
	Prof atr.Profile
	// D is the frame delay (§4.5): the pace of the host and of
	// self-paced sources, and the governor's default frame budget.
	D float64
	// NoIO runs the paper's 0A/0B mode: frames come from local storage,
	// no communication at all.
	NoIO bool
	// RotationPeriod > 1 enables node rotation every that many frames
	// (§5.5). It must be at least the pipeline depth: each rotation
	// takes one slot per role to propagate down the ring.
	RotationPeriod int
	// Ack enables the power-failure recovery protocol (§5.4): internode
	// transfers are acknowledged, timeouts detect dead peers, and the
	// survivor absorbs the failed node's span. Supported for two-node
	// pipelines, the configuration the paper evaluates.
	Ack bool
	// AckTimeoutS is how long a sender waits for an acknowledgment (and
	// the slack added to receive deadlines) before declaring its peer
	// dead.
	AckTimeoutS float64
	// Exec, when non-nil, runs the real computation for a stage: it maps
	// the inbound payload to the outbound payload (e.g. via
	// atr.Pipeline.ApplySpan). Execution timing still follows the
	// profile — the simulation models the SA-1100's speed, not the host
	// machine's — but the data genuinely flows through the pipeline.
	Exec func(span atr.Span, in any) any
	// Retry bounds retransmission of faulted transfers (drop/garble
	// injected by internal/fault). The zero value disables
	// retransmission; see serial.DefaultRetryPolicy.
	Retry serial.RetryPolicy
	// Metrics, when non-nil, receives the node's RECV/PROC/SEND phase
	// latency histograms. Nil disables recording at near-zero cost. The
	// node's event counts are plain fields, read through Counters.
	Metrics *metrics.Registry
	// Governor selects the online DVS policy that re-decides each node's
	// compute operating point at every frame boundary (see
	// internal/governor). The zero spec disables the decision loop
	// entirely, reproducing the paper's static Table-driven assignment
	// byte for byte. The NoIO mode has no frame deadline to govern
	// against.
	Governor governor.Spec
	// OnGovern, when set, observes every governor decision (the
	// telemetry run log's "govern" events). Only called when Governor is
	// enabled.
	OnGovern func(node string, ev governor.Event)
}

// phaseBuckets are the histogram bounds for per-frame phase latencies,
// in seconds, spanning sub-transaction times up to several frame delays.
var phaseBuckets = []float64{0.05, 0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 10}

// instruments are a node's phase latency histograms; with metrics
// disabled every field is a nil no-op.
type instruments struct {
	recvS, procS, sendS *metrics.Histogram
}

// Node is one Itsy computer: a pipeline stage on the paper's ring, or a
// vertex of a fleet graph. Either way its frame loop obtains input
// (carried data, its own pace, or a receive), computes, rotates or
// sends, governs and idles; the wiring decides which input and output
// cases apply.
type Node struct {
	Name string

	k     *sim.Kernel
	port  *serial.Port
	power *Power
	cfg   Config

	roles   []Role // this node's copy of the pipeline roles
	roleIdx int    // current role (0-based index into roles)
	phys    int    // physical position in the ring, 0-based

	// ring[i] is the physical node at position i; set by Wire, nil for
	// graph vertices.
	ring []*Node
	// parents is the number of inbound edges; a node without any is a
	// self-paced source.
	parents int
	// children receive the node's output, chosen round-robin by frame
	// number; a ring node's one child is its ring successor.
	children []*serial.Port
	// sink is the host collector final results go to: always set on
	// the ring (for whichever node holds the last role), set only on
	// sink vertices of a graph.
	sink *serial.Port
	// nextFrame is a source's next frame: advanced as frames are
	// emitted, fast-forwarded past an outage on restart.
	nextFrame int

	// carry is data kept across a rotation (the "input data already
	// available" of §5.5), tagged with its frame number; carrying marks
	// it held.
	carry    carriedFrame
	carrying bool

	loop *loop // the frame loop in progress; nil before Start
	met  instruments

	// Hoisted serial callbacks: method values allocate a closure per
	// evaluation, so the frame loop's Recv/Send options reference these
	// fields, bound once in New, instead of building them per frame.
	commStartFn func()
	idleFn      func()
	sendStartFn func()
	// sendQueued anchors sendStartFn's down-wait measurement for the
	// frame's outbound transfer.
	sendQueued sim.Time

	// Online DVS governor state: gov is the policy instance (nil when
	// ungoverned), govPoint the governed compute point overriding the
	// role's static assignment (zero = none). sendWaitS records how long
	// the current frame's outbound transfer waited for the downstream
	// port — the rendezvous model's observable form of downstream queue
	// occupancy.
	gov         governor.Governor
	govPoint    cpu.OperatingPoint
	sendWaitS   float64
	sendWaitSet bool

	crashed bool // injected-crash outage in progress

	// Stats.
	FramesProcessed int // PROC executions completed
	ResultsSent     int // final results delivered to the host
	Rotations       int
	Migrations      int
	Crashes         int // injected crashes applied
	Restarts        int // recoveries from injected crashes
	FramesAbandoned int // frames given up after a spent retransmit budget
	// Governor stats (all zero when ungoverned).
	GovernorDecisions  int      // frame-boundary decisions taken
	GovernorSwitches   int      // decisions that changed the operating point
	DeadlineMisses     int      // frames whose busy time exceeded the budget D
	GovernorFreqSumMHz float64  // sum of decided clocks, for mean-frequency reporting
	DeadAt             sim.Time // battery exhaustion time; 0 if alive
	peerDead           []bool   // detected failures, by physical index
}

type carriedFrame struct {
	frame   int
	payload any
}

// New creates the node named name at physical ring position phys (0 for
// a graph vertex, whose roles hold its one role). Wire or WireGraph must
// be called before Start.
func New(k *sim.Kernel, net *serial.Network, pw *Power, cfg Config, name string, roles []Role, phys int) *Node {
	if cfg.RotationPeriod > 1 && cfg.RotationPeriod < len(roles) {
		// A rotation takes one pipeline slot per role to propagate
		// (Fig 9); a shorter period would overlap transitions and strand
		// frames mid-pipeline.
		panic(fmt.Sprintf("node: rotation period %d shorter than pipeline depth %d",
			cfg.RotationPeriod, len(roles)))
	}
	own := make([]Role, len(roles))
	copy(own, roles)
	met := instruments{
		recvS: cfg.Metrics.Histogram("node_recv_s", name, phaseBuckets),
		procS: cfg.Metrics.Histogram("node_proc_s", name, phaseBuckets),
		sendS: cfg.Metrics.Histogram("node_send_s", name, phaseBuckets),
	}
	// A bad spec reaching here is a programming error: core validates
	// governor configuration at load/flag-parse time.
	gov := governor.MustNew(cfg.Governor)
	n := &Node{
		gov:   gov,
		met:   met,
		Name:  name,
		k:     k,
		port:  net.Port(name),
		power: pw,
		cfg:   cfg,
		roles: own,
		// Initially physical position i holds role i+1.
		roleIdx:   phys,
		phys:      phys,
		nextFrame: own[phys].Phase,
	}
	n.commStartFn = n.commStart
	n.idleFn = n.idle
	n.sendStartFn = n.onSendStart
	return n
}

// Wire connects the node to the pipeline ring: its input comes from the
// host (role 1) or its ring predecessor, its output goes to its ring
// successor or, from the last role, to the host sink. The ring protocols
// — rotation and the ack/migration recovery — apply only here.
func (n *Node) Wire(ring []*Node, hostSink *serial.Port) {
	n.ring = ring
	n.peerDead = make([]bool, len(ring))
	n.WireGraph(1, []*serial.Port{ring[n.downstreamPhys()].Port()}, hostSink)
}

// WireGraph connects the node as a graph vertex: parents inbound edges
// (none makes it a self-paced source), the child ports its output goes
// to round-robin by frame number, and — for a sink vertex — the host
// collector port its results go to.
func (n *Node) WireGraph(parents int, children []*serial.Port, sink *serial.Port) {
	n.parents = parents
	n.children = children
	n.sink = sink
}

// Port returns the node's serial port.
func (n *Node) Port() *serial.Port { return n.port }

// Power returns the node's power meter.
func (n *Node) Power() *Power { return n.power }

// Counters reports the node's event counts and its meter's under the
// metric names of a run's snapshot. Governor counts appear only on a
// governed node, rotation and migration counts only on a ring node.
func (n *Node) Counters(emit func(name string, v float64)) {
	pw := n.power
	emit("battery_delivered_mas", pw.DeliveredMAs())
	emit("node_crashes", float64(n.Crashes))
	emit("node_dvs_switches", float64(pw.CPU().Switches()))
	emit("node_frames_abandoned", float64(n.FramesAbandoned))
	emit("node_frames_processed", float64(n.FramesProcessed))
	emit("node_mode_transitions", float64(pw.Transitions()))
	emit("node_restarts", float64(n.Restarts))
	emit("node_results_sent", float64(n.ResultsSent))
	if n.gov != nil {
		emit("node_deadline_misses", float64(n.DeadlineMisses))
		emit("node_governor_decisions", float64(n.GovernorDecisions))
		emit("node_governor_switches", float64(n.GovernorSwitches))
	}
	if n.ring != nil {
		emit("node_migrations", float64(n.Migrations))
		emit("node_rotations", float64(n.Rotations))
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role { return *n.role() }

// role is the node's current role in place: the frame loop reads its
// fields on every mode transition, and a Role is too large to copy
// there.
func (n *Node) role() *Role { return &n.roles[n.roleIdx] }

// Dead reports whether the node's battery is exhausted.
func (n *Node) Dead() bool { return n.power.Dead() }

// Crashed reports whether an injected crash outage is in progress.
func (n *Node) Crashed() bool { return n.crashed }

// Available reports whether the node is running: neither dead nor in a
// crash outage. Peers use it to distinguish a genuinely failed neighbor
// from one that is merely slow (retransmitting).
func (n *Node) Available() bool { return !n.Dead() && !n.crashed }

// Pacing reports whether the node is a self-paced source with frames
// still to emit; a run is not finished while any source is pacing.
func (n *Node) Pacing() bool {
	r := n.role().Rounds
	return n.parents == 0 && (r <= 0 || n.nextFrame < r)
}

// Crash applies an injected outage (fault.CrashTarget): the node's
// frame loop is interrupted, and its battery rests at zero draw until
// Restart. It reports whether it applied — a dead or already-crashed
// node cannot crash.
func (n *Node) Crash() bool {
	if n.crashed || n.Dead() {
		return false
	}
	n.crashed = true
	n.Crashes++
	n.power.Suspend()
	n.Interrupt()
	return true
}

// Restart ends an injected outage (fault.CrashTarget): metering
// resumes, any carried frame is lost, and a fresh frame loop starts in
// the node's current role. A source resumes at the first frame time
// after the outage instead of bursting through the frames it slept
// over. It reports whether it applied — only a crashed, non-dead node
// can restart.
func (n *Node) Restart() bool {
	if !n.crashed || n.Dead() {
		return false
	}
	n.crashed = false
	n.Restarts++
	n.power.Resume()
	n.carry, n.carrying = carriedFrame{}, false
	n.governReset()
	if n.parents == 0 {
		for float64(n.nextFrame)*n.cfg.D < float64(n.k.Now()) {
			n.nextFrame += n.role().stride()
		}
	}
	n.start()
	return true
}

// Start starts the node's frame loop. Battery death interrupts it at
// the exact exhaustion instant.
func (n *Node) Start() {
	n.power.OnDeath = func() {
		n.DeadAt = n.k.Now()
		n.Interrupt()
	}
	n.start()
}

// Interrupt ends the node's frame loop at its current wait (a no-op
// when no loop is running). The loop's continuation runs in a later
// event of the same instant, or — if the loop is in its own
// continuation — at its next wait.
func (n *Node) Interrupt() {
	if n.loop != nil {
		n.loop.task.Interrupt()
	}
}

// upstreamPhys / downstreamPhys are the ring neighbors.
func (n *Node) upstreamPhys() int   { return (n.phys - 1 + len(n.ring)) % len(n.ring) }
func (n *Node) downstreamPhys() int { return (n.phys + 1) % len(n.ring) }

// computePoint is the operating point PROC runs at: the governed point
// when a governor has decided one, the role's static assignment
// otherwise.
func (n *Node) computePoint() cpu.OperatingPoint {
	if n.govPoint != (cpu.OperatingPoint{}) {
		return n.govPoint
	}
	return n.role().Compute
}

// deadlineMissEps absorbs float drift when comparing busy time against
// the frame budget.
const deadlineMissEps = 1e-9

// govern runs the frame-boundary control loop: assemble the observation
// from sim-clock measurements, ask the policy for the next compute
// point, and account the decision. proc0/comm0 are the mode clocks at
// the iteration's start.
func (n *Node) govern(frame int, proc0, comm0 float64) {
	if n.gov == nil {
		return
	}
	procS := n.power.ModeSeconds(cpu.Compute) - proc0
	commS := n.power.ModeSeconds(cpu.Comm) - comm0
	cur := n.computePoint()
	budget := n.role().BudgetS
	if budget <= 0 {
		budget = n.cfg.D
	}
	obs := governor.Observation{
		Frame:       frame,
		NowS:        float64(n.k.Now()),
		DeadlineS:   budget,
		ProcS:       procS,
		CommS:       commS,
		SlackS:      budget - procS - commS,
		RefS:        procS * cur.FreqMHz / cpu.MaxPoint.FreqMHz,
		QueueIn:     n.port.Pending(),
		DownWaitS:   n.sendWaitS,
		SoC:         n.power.Battery().StateOfCharge(),
		Point:       cur,
		RoleCompute: n.role().Compute,
	}
	if obs.SlackS < -deadlineMissEps {
		n.DeadlineMisses++
	}
	next := n.gov.Decide(obs)
	n.GovernorDecisions++
	n.GovernorFreqSumMHz += next.FreqMHz
	if next != cur {
		n.GovernorSwitches++
	}
	n.govPoint = next
	if n.cfg.OnGovern != nil {
		n.cfg.OnGovern(n.Name, governor.Event{
			Frame: frame, From: cur, To: next, Obs: obs, Terms: n.gov.Terms(),
		})
	}
}

// rotate moves the node to the next role on the ring (§5.5).
func (n *Node) rotate() {
	n.roleIdx = (n.roleIdx + 1) % len(n.roles)
	n.Rotations++
	n.governReset()
}

// governReset clears the governor after a role change — rotation,
// migration, crash restart — because measurements from the old span do
// not transfer to the new one. The next frame runs at the new role's
// static point until the controller re-primes.
func (n *Node) governReset() {
	if n.gov == nil {
		return
	}
	n.gov.Reset()
	n.govPoint = cpu.OperatingPoint{}
}

// sendStart arms and returns the TxOpts.OnStart callback for an
// outbound data transfer: under a governor it additionally records,
// once per frame, how long the offer waited before the downstream port
// accepted it (the buffer-aware policy's congestion signal).
func (n *Node) sendStart() func() {
	n.sendQueued = n.k.Now()
	return n.sendStartFn
}

// onSendStart is the hoisted body of the callback sendStart arms.
func (n *Node) onSendStart() {
	if n.gov != nil && !n.sendWaitSet {
		n.sendWaitSet = true
		n.sendWaitS = float64(n.k.Now() - n.sendQueued)
	}
	n.commStart()
}

// recvDeadline is the failure-detection deadline for inbound data: only
// recovery-enabled interior stages time out.
func (n *Node) recvDeadline() sim.Time {
	if n.cfg.Ack && n.role().Index > 1 {
		// Upstream should deliver within about one frame period; allow
		// generous slack for pipeline jitter.
		return n.k.Now() + sim.Time(2*n.cfg.D+n.cfg.AckTimeoutS)
	}
	return sim.Infinity
}

// Accepted message kinds: acknowledgments (the sender's ack wait), host
// frames and internode data.
var (
	ackKinds   = serial.KindsOf(serial.KindAck)
	frameKinds = serial.KindsOf(serial.KindFrame)
	interKinds = serial.KindsOf(serial.KindInter)
)

// acceptKinds filters the node's inbound port traffic to the data
// messages its role expects — host frames for role 1 of the ring,
// internode data otherwise; acks are consumed explicitly by the sender's
// ack wait.
func (n *Node) acceptKinds() serial.Kinds {
	if n.ring != nil && n.role().Index == 1 {
		return frameKinds
	}
	return interKinds
}

// toHost reports whether the node's output is a final result for the
// host: it holds the ring's last role, or it is a graph sink.
func (n *Node) toHost() bool {
	return n.sink != nil && n.role().Index == len(n.roles)
}

// abandon writes off the in-flight frame and always reports true, so
// callers can fold it into their handled result.
func (n *Node) abandon() bool {
	n.FramesAbandoned++
	return true
}

// migrateFrom absorbs the span of the dead physical peer into this node's
// role (§5.4). After migration the survivor runs the merged span as a
// single-stage pipeline at full clock — with both communication legs plus
// the enlarged span there is no DVS headroom left, which is how §6.6 runs
// the surviving node. Migration is defined for two-node pipelines (the
// paper's experiment); with everyone else dead, ok is false and the node
// stops.
func (n *Node) migrateFrom(deadPhys int) (absorbed Role, ok bool) {
	if deadPhys == n.phys || n.peerDead[deadPhys] || len(n.ring) != 2 {
		return Role{}, false
	}
	dead := n.ring[deadPhys]
	n.peerDead[deadPhys] = true
	myRole := *n.role()
	deadRole := *dead.role()
	var merged atr.Span
	switch {
	case deadRole.Span.Last+1 == myRole.Span.First:
		merged = atr.Span{First: deadRole.Span.First, Last: myRole.Span.Last}
	case myRole.Span.Last+1 == deadRole.Span.First:
		merged = atr.Span{First: myRole.Span.First, Last: deadRole.Span.Last}
	default:
		return Role{}, false
	}
	// Synthetic-work roles (RefS overrides) merge by summing reference
	// times; the zero values keep profile-driven pipelines byte-stable.
	var mergedRefS float64
	if myRole.RefS > 0 || deadRole.RefS > 0 {
		mergedRefS = n.refSeconds(&myRole) + n.refSeconds(&deadRole)
	}
	lastRole := myRole
	if deadRole.Index > myRole.Index {
		lastRole = deadRole
	}
	// The survivor continues in the baseline configuration — full clock
	// for both computation and I/O. §6.6 observes that keeping the
	// system alive through recovery "must be supported with additional,
	// expensive energy consumption", and the paper's survivor frame
	// count (≈5K on the remaining charge) matches baseline operation,
	// not DVS-during-I/O operation.
	n.roles = []Role{{
		Index:   1,
		Span:    merged,
		Compute: cpu.MaxPoint,
		Comm:    cpu.MaxPoint,
		RefS:    mergedRefS,
		OutKB:   lastRole.OutKB,
	}}
	n.roleIdx = 0
	n.Migrations++
	n.governReset()
	return deadRole, true
}

// commStart switches to communication mode at the role's comm point; the
// serial layer invokes it at the instant a transfer actually begins.
func (n *Node) commStart() {
	n.power.Transition(cpu.Comm, n.role().Comm)
}

// idle switches to idle mode at the role's idle point.
func (n *Node) idle() {
	n.power.Transition(cpu.Idle, n.role().IdlePoint())
}
