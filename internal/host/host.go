// Package host models the mains-powered host computer of the paper's
// testbed (Fig 5): the external frame source, the result destination, and
// the PPP hub between the Itsy nodes. The host has no battery and no
// power budget; it exists to pace the workload and collect results.
package host

import (
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// Result records one final result's arrival at the host.
type Result struct {
	Frame int
	At    sim.Time
	From  string
	// Payload is the result content when the pipeline runs natively.
	Payload any
}

// Host is the external source and destination.
type Host struct {
	k   *sim.Kernel
	net *serial.Network

	// D is the frame period: one frame enters the pipeline every D
	// seconds (§4.5).
	D float64
	// FrameKB is the raw frame payload (10.1 KB).
	FrameKB float64
	// RotationPeriod mirrors the pipeline's rotation setting so the
	// source can address the node currently holding role 1.
	RotationPeriod int
	// MakeFrame, when non-nil, generates the real frame payload for each
	// frame number (native pipeline execution).
	MakeFrame func(frame int) any
	// MaxFrames, when > 0, stops the source after that many frames
	// (bounded studies; 0 runs until Stop or battery exhaustion).
	MaxFrames int
	// Retry bounds retransmission of faulted frame deliveries (see
	// internal/fault); the zero value disables retransmission.
	Retry serial.RetryPolicy
	// Metrics, when non-nil, receives host-side telemetry: end-to-end
	// frame latency and the source-side backlog. Set it before Start.
	// The frame counts are plain fields, read through Counters.
	Metrics *metrics.Registry

	// Targets lists the pipeline nodes' ports in physical ring order;
	// Alive reports whether a target can still accept frames.
	Targets []*serial.Port
	Alive   []func() bool

	srcPort  *serial.Port
	sinkPort *serial.Port

	latencyS   *metrics.Histogram
	queueDepth *metrics.Gauge

	// FramesSent counts frames the source actually delivered.
	FramesSent int
	// FramesDropped counts frames that could not even be queued because
	// no live node existed to address them.
	FramesDropped int
	// MaxQueue is the largest frame backlog observed at any node port —
	// the host's buffering absorbs a pipeline that runs slightly over
	// the frame budget (the paper's scheme-1 Node2 needs 2.33 s of a
	// 2.3 s slot).
	MaxQueue int
	// OnResult, when set, observes each arriving result.
	OnResult func(Result)

	stopped bool

	src  source
	sink sink
	// free holds delivery jobs not in flight; jobs counts those
	// allocated, in batches that double, so a backlog of n frames costs
	// O(log n) allocations.
	free []*frameJob
	jobs int
}

// New returns a host on the network. Configure the exported fields, then
// call Start.
func New(k *sim.Kernel, net *serial.Network) *Host {
	h := &Host{
		k:        k,
		net:      net,
		sinkPort: net.Port("host-sink"),
	}
	h.src.h, h.sink.h = h, h
	h.src.task.Init(k, &h.src)
	h.sink.task.Init(k, &h.sink)
	return h
}

// SinkPort is where pipeline nodes address final results.
func (h *Host) SinkPort() *serial.Port { return h.sinkPort }

// latencyBuckets bound the end-to-end frame latency histogram: from one
// pipeline traversal (a few seconds at D = 2.3 s) up to long post-death
// backlogs.
var latencyBuckets = []float64{2.5, 5, 7.5, 10, 15, 20, 30, 60, 120}

// Start starts the source and the sink. A host stopped before Start is
// a sink only: it collects results from self-paced sources and never
// opens its source port.
func (h *Host) Start() {
	h.latencyS = h.Metrics.Histogram("host_frame_latency_s", "", latencyBuckets)
	h.queueDepth = h.Metrics.Gauge("host_queue_depth", "")
	if !h.stopped {
		h.srcPort = h.net.Port("host-src")
		h.src.task.Start(h.k.Now())
	}
	h.sink.task.Start(h.k.Now())
}

// Counters reports the host's frame counts under the metric names of a
// run's snapshot.
func (h *Host) Counters(emit func(name string, v float64)) {
	emit("host_frames_dropped", float64(h.FramesDropped))
	emit("host_frames_sent", float64(h.FramesSent))
}

// Stop makes the source cease sending new frames (the sink keeps
// draining). Used by experiment harnesses on stall detection.
func (h *Host) Stop() { h.stopped = true }

// Stopped reports whether the source has finished emitting frames.
func (h *Host) Stopped() bool { return h.stopped }

// role1Phys returns the physical index of the node holding role 1 for
// the given frame, accounting for completed rotations (§5.5).
func (h *Host) role1Phys(frame int) int {
	n := len(h.Targets)
	if h.RotationPeriod <= 1 || n == 0 {
		return 0
	}
	k := frame / h.RotationPeriod
	return ((-k)%n + n) % n
}

// source emits one frame every D seconds, queued at the current role-1
// node's port. The mains-powered host buffers freely: a frame the node
// is not yet ready for simply waits at the port (the paper's Fig 5 host
// forwards over per-node PPP links and has no memory pressure), so a
// pipeline running a couple of percent over budget lags but never
// desynchronizes. If the role-1 node is known dead the next live node in
// ring order is addressed instead, which is how the host follows a
// post-failure migration.
type source struct {
	h     *Host
	task  sim.Task
	frame int
	// pacing is set once the first frame period is running.
	pacing bool
}

// Resume is the source's continuation: its start, then each frame
// time.
func (s *source) Resume(err error) {
	h := s.h
	if !s.pacing {
		s.pacing = true
		s.await()
		return
	}
	if err != nil || h.stopped {
		s.task.Exit()
		return
	}
	if target := h.pickTarget(s.frame); target == nil {
		h.FramesDropped++
	} else {
		q := target.Pending() + 1
		if q > h.MaxQueue {
			h.MaxQueue = q
		}
		h.queueDepth.Set(float64(q))
		// Deliver from a job of its own so pacing never blocks on a busy
		// node; the port preserves posting order.
		h.job(s.frame, target)
	}
	s.frame++
	s.await()
}

// await waits for the next frame's time, or stops a bounded source.
func (s *source) await() {
	h := s.h
	if h.MaxFrames > 0 && s.frame >= h.MaxFrames {
		h.stopped = true
		s.task.Exit()
		return
	}
	s.task.WaitUntil(sim.Time(float64(s.frame) * h.D))
}

// frameJob is one frame delivery in flight: a reliable send from the
// host's source port, started as a task of its own.
type frameJob struct {
	h      *Host
	task   sim.Task
	tx     serial.Tx
	frame  int
	target *serial.Port
	// sending is set once the start event has begun the send.
	sending bool
}

// job starts the delivery of frame to target, drawing a free job or
// allocating a batch.
func (h *Host) job(frame int, target *serial.Port) {
	if len(h.free) == 0 {
		batch := make([]frameJob, max(8, h.jobs))
		h.jobs += len(batch)
		for i := range batch {
			j := &batch[i]
			j.h = h
			j.task.Init(h.k, j)
			h.free = append(h.free, j)
		}
	}
	j := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	j.frame, j.target, j.sending = frame, target, false
	j.task.Start(h.k.Now())
}

// Resume is the job's continuation: its start event, then each step of
// the send.
func (j *frameJob) Resume(err error) {
	h := j.h
	var done bool
	if !j.sending {
		j.sending = true
		msg := serial.Message{Kind: serial.KindFrame, Frame: j.frame, KB: h.FrameKB}
		if h.MakeFrame != nil {
			msg.Payload = h.MakeFrame(j.frame)
		}
		done, err = j.tx.SendReliable(&j.task, h.srcPort, j.target, msg, serial.TxOpts{}, h.Retry)
	} else {
		done, err = j.tx.Step(err)
	}
	if !done {
		return
	}
	switch {
	case err == nil:
		h.FramesSent++
	case serial.IsFault(err):
		// The wire ate the frame past the retransmit budget.
		h.FramesDropped++
	}
	j.task.Exit()
	j.target = nil
	h.free = append(h.free, j)
}

// pickTarget selects the port to offer the frame to.
func (h *Host) pickTarget(frame int) *serial.Port {
	if len(h.Targets) == 0 {
		return nil
	}
	start := h.role1Phys(frame)
	for i := 0; i < len(h.Targets); i++ {
		idx := (start + i) % len(h.Targets)
		if h.Alive == nil || h.Alive[idx] == nil || h.Alive[idx]() {
			return h.Targets[idx]
		}
	}
	return nil
}

// Latency is the end-to-end frame latency of a result: arrival at the
// sink minus the instant the frame entered the system (frame·D).
func (h *Host) Latency(r Result) float64 {
	return float64(r.At) - float64(r.Frame)*h.D
}

// sink accepts results forever.
type sink struct {
	h    *Host
	task sim.Task
	rx   serial.Rx
	// receiving is set once the first receive is running.
	receiving bool
}

// Resume is the sink's continuation: its start, then each step of the
// receive in progress.
func (s *sink) Resume(err error) {
	if !s.receiving {
		s.receiving = true
		s.recv()
		return
	}
	done, msg, err := s.rx.Step(err)
	if done && s.got(msg, err) {
		s.recv()
	}
}

// recv starts receives until one blocks.
func (s *sink) recv() {
	for {
		done, msg, err := s.rx.Recv(&s.task, s.h.sinkPort, serial.RxOpts{})
		if !done || !s.got(msg, err) {
			return
		}
	}
}

// got records one result; it reports false when the sink stops.
func (s *sink) got(msg serial.Message, err error) bool {
	h := s.h
	if err != nil {
		s.task.Exit()
		return false
	}
	r := Result{Frame: msg.Frame, At: h.k.Now(), From: msg.From, Payload: msg.Payload}
	h.latencyS.Observe(h.Latency(r))
	if h.OnResult != nil {
		h.OnResult(r)
	}
	return true
}
