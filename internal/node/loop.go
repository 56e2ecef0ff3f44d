package node

import (
	"errors"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// The frame loop as an explicit state machine, in the manner of Conti's
// power state machine (PAPERS.md): a node awaits input (its pace, a
// receive, or data carried across a rotation), computes, sends (and, on
// the recovery protocol's ring, exchanges acks), governs and idles.
// Each state is a blocking episode on the loop's task; its continuation
// runs exactly where a sequential process would resume, so the kernel
// sees the same schedule either way. Battery death, a crash and the
// run's end interrupt the episode in progress; rotation and migration
// are transitions taken between states.

// loopState is the episode a loop is blocked in.
type loopState uint8

const (
	lsStart   loopState = iota // start event pending
	lsPace                     // a source waiting for its frame time
	lsRecv                     // receiving input
	lsAck                      // acknowledging received input (§5.4)
	lsCompute                  // PROC
	lsSend                     // sending output
	lsAckWait                  // awaiting the downstream ack (§5.4)
)

// computeNext is where a PROC episode continues.
type computeNext uint8

const (
	cFrame    computeNext = iota // the frame's own span
	cNoIO                        // the 0A/0B back-to-back loop
	cMigrated                    // a dead peer's span, absorbed mid-frame
)

// loop is one run of a node's frame loop, from Start or Restart until
// death, a crash, the run's end or an exhausted source. A restart runs
// a fresh loop, so one still unwinding cannot be confused with its
// successor.
type loop struct {
	n    *Node
	task sim.Task
	tx   serial.Tx
	rx   serial.Rx
	st   loopState

	// The frame in progress: its number, input and output.
	frame   int
	payload any
	out     any
	// Governor anchors: the mode clocks at the iteration's start.
	proc0, comm0 float64
	// Input gathering: messages still needed, the gather's start, the
	// grace window granted to a slow upstream, and the message being
	// acknowledged.
	need  int
	t0    sim.Time
	grace bool
	msg   serial.Message
	// PROC: its start, the span the stage function runs on, its input
	// and continuation.
	pt0     sim.Time
	span    atr.Span
	in      any
	next    computeNext
	rotated bool // the frame triggers a rotation
	last    bool // the frame's output is a final result
	// Output: the send's start, whether the recovery protocol's ack
	// follows it, and whether it completes a frame migrated mid-send.
	ts       sim.Time
	awaitAck bool
	migrated bool
}

// start begins a fresh frame loop at the current instant.
func (n *Node) start() {
	l := &loop{n: n}
	l.task.Init(n.k, l)
	l.task.Start(n.k.Now())
	n.loop = l
}

// Resume is the loop's continuation: each episode resumes here.
func (l *loop) Resume(err error) {
	switch l.st {
	case lsStart:
		if err != nil {
			l.task.Exit() // ended before it ever ran
			return
		}
		if l.n.cfg.NoIO {
			l.compute(l.n.role(), l.n.role().Compute, nil, cNoIO)
			return
		}
		l.iterate()
	case lsPace:
		if err != nil {
			l.stop()
			return
		}
		l.n.nextFrame = l.frame + l.n.role().stride()
		l.process()
	case lsRecv:
		if done, msg, err := l.rx.Step(err); done {
			l.received(msg, err)
		}
	case lsAck:
		if done, err := l.tx.Step(err); done {
			l.acked(err)
		}
	case lsCompute:
		if err != nil {
			l.stop()
			return
		}
		l.computed()
	case lsSend:
		if done, err := l.tx.Step(err); done {
			l.sent(err)
		}
	case lsAckWait:
		if done, _, err := l.rx.Step(err); done {
			l.n.idle()
			l.ackOutcome(err)
		}
	}
}

// stop ends the loop, settling the battery's last segment.
func (l *loop) stop() {
	l.n.power.Finish()
	l.task.Exit()
}

// iterate starts a frame: carried data after a rotation, the next paced
// frame for a source, or a receive from upstream — one message, or one
// per parent for a fan-in aggregator, whose frame is the latest
// gathered.
func (l *loop) iterate() {
	n := l.n
	// Frame-budget measurement anchors for the governor: busy time is
	// metered as mode-clock deltas across the whole iteration
	// (RECV+PROC+SEND, acks and retransmissions included), which the
	// power meter keeps settled at every transition.
	if n.gov != nil {
		l.proc0 = n.power.ModeSeconds(cpu.Compute)
		l.comm0 = n.power.ModeSeconds(cpu.Comm)
		n.sendWaitS, n.sendWaitSet = 0, false
	}
	if n.carrying {
		l.frame, l.payload = n.carry.frame, n.carry.payload
		n.carry, n.carrying = carriedFrame{}, false
		l.process()
		return
	}
	if n.parents == 0 {
		// A source waits for its next frame time; a bounded one stops
		// once it has emitted every frame.
		if !n.Pacing() {
			l.stop()
			return
		}
		l.frame = n.nextFrame
		n.idle()
		l.task.WaitUntil(sim.Time(float64(l.frame) * n.cfg.D))
		l.st = lsPace
		return
	}
	l.need = 1
	if n.role().FanInAll {
		l.need = n.parents
	}
	l.frame, l.payload = 0, nil
	l.t0 = n.k.Now()
	l.grace = false
	l.receive()
}

// receive takes one inbound message: a frame from the host for role 1
// of the ring, internode data otherwise.
func (l *loop) receive() {
	n := l.n
	n.idle() // blocked waiting is idle time
	done, msg, err := l.rx.Recv(&l.task, n.port, serial.RxOpts{
		Deadline: n.recvDeadline(),
		Accept:   n.acceptKinds(),
		OnStart:  n.commStartFn,
		OnAbort:  n.idleFn, // faulted transfer discarded; back to waiting
	})
	if !done {
		l.st = lsRecv
		return
	}
	l.received(msg, err)
}

// received handles a receive's outcome. Under the recovery protocol the
// transfer is acknowledged, and a silent upstream peer gets one grace
// window before its span is absorbed (§5.4).
func (l *loop) received(msg serial.Message, err error) {
	n := l.n
	n.idle()
	switch {
	case err == nil:
		if !n.cfg.Ack || msg.Kind != serial.KindInter {
			l.gather(msg)
			return
		}
		// Acknowledge the transfer (§5.4), retransmitting a faulted ack
		// within the budget.
		l.msg = msg
		src := n.ring[n.upstreamPhys()]
		done, err := l.tx.SendReliable(&l.task, n.port, src.Port(), serial.Message{
			Kind: serial.KindAck, Frame: msg.Frame,
		}, serial.TxOpts{OnStart: n.commStartFn, OnBackoff: n.idleFn}, n.cfg.Retry)
		if !done {
			l.st = lsAck
			return
		}
		l.acked(err)
	case errors.Is(err, sim.ErrTimeout):
		// No data within the detection window. A peer that is alive
		// (merely slow: backoffs, a transient outage it already recovered
		// from) gets one grace window; after that — or when the peer is
		// dead or crashed — it is absorbed (§5.4).
		if !l.grace && n.ring[n.upstreamPhys()].Available() {
			l.grace = true
			l.receive()
			return
		}
		if _, ok := n.migrateFrom(n.upstreamPhys()); !ok {
			l.stop()
			return
		}
		l.receive()
	default:
		l.stop() // interrupted: battery death, a crash or the run's end
	}
}

// acked keeps the acknowledged frame. An exhausted retransmit budget
// keeps it anyway — the sender abandons or migrates on its own timeout.
func (l *loop) acked(err error) {
	l.n.idle()
	if err != nil && !serial.IsFault(err) && !errors.Is(err, serial.ErrRetriesExhausted) {
		l.stop()
		return
	}
	l.gather(l.msg)
}

// gather adds one message to the frame's input and computes once every
// needed message is in.
func (l *loop) gather(msg serial.Message) {
	l.frame, l.payload = max(l.frame, msg.Frame), msg.Payload
	if l.need--; l.need > 0 {
		l.grace = false
		l.receive()
		return
	}
	l.n.met.recvS.Observe(float64(l.n.k.Now() - l.t0))
	l.process()
}

// process computes the frame's own span.
func (l *loop) process() {
	l.compute(l.n.role(), l.n.computePoint(), l.payload, cFrame)
}

// compute runs role's computation at operating point at on input in,
// continuing at next. The role is read in place and only its span is
// kept: a Role is too large to copy on every PROC.
func (l *loop) compute(role *Role, at cpu.OperatingPoint, in any, next computeNext) {
	n := l.n
	l.pt0 = n.k.Now()
	l.span, l.in, l.next, l.out = role.Span, in, next, nil
	n.power.Transition(cpu.Compute, at)
	work := cpu.ScaledTime(n.refSeconds(role), at)
	l.task.WaitUntil(n.k.Now() + sim.Duration(work))
	l.st = lsCompute
}

// computed ends PROC, applying the native stage function to the input
// when one is configured.
func (l *loop) computed() {
	n := l.n
	n.met.procS.Observe(float64(n.k.Now() - l.pt0))
	if n.cfg.Exec != nil {
		l.out = n.cfg.Exec(l.span, l.in)
	}
	n.idle()
	switch l.next {
	case cNoIO:
		n.FramesProcessed++
		n.met.frames.Inc()
		l.compute(n.role(), n.role().Compute, nil, cNoIO)
	case cFrame:
		l.processed()
	case cMigrated:
		// Deliver the frame finished locally (§5.4/§6.6).
		l.migrated = true
		l.send()
	}
}

// processed rotates or sends the frame's product.
func (l *loop) processed() {
	n := l.n
	n.FramesProcessed++
	n.met.frames.Inc()
	// Rotation trigger (§5.5): the node holding role r rotates after
	// processing frame f with (f + r) ≡ 0 (mod R). Since role r works on
	// frame I − (r−1) when role 1 works on I, every role triggers in the
	// same pipeline slot, which is what lets the carried data replace the
	// eliminated SEND/RECV pair.
	l.rotated = n.cfg.RotationPeriod > 1 && len(n.roles) > 1 &&
		(l.frame+n.role().Index)%n.cfg.RotationPeriod == 0
	l.last = n.toHost()
	if l.rotated && !l.last {
		// §5.5: keep the result, become the next role, continue
		// computing on the data already in memory. The eliminated
		// SEND/RECV pair pays for the reconfiguration.
		n.carry, n.carrying = carriedFrame{frame: l.frame, payload: l.out}, true
		n.rotate()
		n.idle()
		l.iterate()
		return
	}
	l.ts = n.k.Now()
	l.send()
}

// send ships the span's product: the final result to the host from the
// last role or a graph sink, the intermediate payload to the frame's
// child otherwise (the ring successor, on the ring). With Ack enabled,
// internode sends then await the ack.
func (l *loop) send() {
	n := l.n
	dst := n.sink
	msg := serial.Message{Kind: serial.KindResult, Frame: l.frame, KB: n.outKB(n.role()), Payload: l.out}
	opts := serial.TxOpts{OnStart: n.sendStart(), OnBackoff: n.idleFn}
	l.awaitAck = false
	if !n.toHost() {
		dst = n.children[l.frame%len(n.children)]
		msg.Kind = serial.KindInter
		if n.cfg.Ack {
			l.awaitAck = true
			opts.Deadline = n.k.Now() + sim.Time(n.cfg.D+n.cfg.AckTimeoutS)
		}
	}
	done, err := l.tx.SendReliable(&l.task, n.port, dst, msg, opts, n.cfg.Retry)
	if !done {
		l.st = lsSend
		return
	}
	l.sent(err)
}

// sent handles a send's outcome.
func (l *loop) sent(err error) {
	n := l.n
	n.idle()
	if !l.awaitAck {
		if err != nil && (serial.IsFault(err) || errors.Is(err, serial.ErrRetriesExhausted)) {
			l.sendDone(true, n.abandon())
			return
		}
		l.sendDone(err == nil, false)
		return
	}
	if err != nil {
		l.ackOutcome(err)
		return
	}
	done, _, err := l.rx.Recv(&l.task, n.port, serial.RxOpts{
		Deadline: n.k.Now() + sim.Time(n.cfg.AckTimeoutS),
		Accept:   ackKinds,
		OnStart:  n.commStartFn,
		OnAbort:  n.idleFn,
	})
	if !done {
		l.st = lsAckWait
		return
	}
	n.idle()
	l.ackOutcome(err)
}

// ackOutcome resolves an acknowledged send.
func (l *loop) ackOutcome(err error) {
	n := l.n
	switch {
	case err == nil:
		l.sendDone(true, false)
	case serial.IsFault(err), errors.Is(err, serial.ErrRetriesExhausted):
		// The wire ate the frame past the retransmit budget; write it off
		// and move on rather than stall the pipeline.
		l.sendDone(true, n.abandon())
	case errors.Is(err, sim.ErrTimeout):
		// No ack within the window. A peer that is alive is merely slow
		// (or the ack itself was lost past its budget): abandon the frame
		// and continue. A dead or crashed peer is absorbed, this frame's
		// remaining blocks finished locally, and the result delivered
		// (§5.4/§6.6).
		if n.ring[n.downstreamPhys()].Available() {
			l.sendDone(true, n.abandon())
			return
		}
		absorbed, ok := n.migrateFrom(n.downstreamPhys())
		if !ok {
			l.sendDone(false, false)
			return
		}
		l.compute(&absorbed, n.role().Compute, l.out, cMigrated)
	default:
		l.sendDone(false, false)
	}
}

// sendDone finishes the frame once its output is resolved. ok is false
// when the loop must stop; handled reports that the frame's result
// accounting was resolved already — written off as abandoned after a
// spent retransmit budget, or counted by a migrated frame's delivery.
func (l *loop) sendDone(ok, handled bool) {
	n := l.n
	if l.migrated {
		l.migrated = false
		if ok {
			n.ResultsSent++
			n.met.results.Inc()
		}
		handled = true
	}
	if !ok {
		l.stop()
		return
	}
	n.met.sendS.Observe(float64(n.k.Now() - l.ts))
	if n.toHost() && !handled {
		n.ResultsSent++
		n.met.results.Inc()
	}
	if l.rotated && l.last {
		// The last node becomes the first (§5.5): next iteration it
		// receives a fresh frame from the host.
		n.rotate()
	} else {
		n.govern(l.frame, l.proc0, l.comm0)
	}
	n.idle()
	l.iterate()
}
