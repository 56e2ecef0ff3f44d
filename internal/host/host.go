// Package host models the mains-powered host computer of the paper's
// testbed (Fig 5): the external frame source, the result destination, and
// the PPP hub between the Itsy nodes. The host has no battery and no
// power budget; it exists to pace the workload and collect results.
package host

import (
	"sync"

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
	// frame latency, frames sent/dropped and the source-side backlog.
	// Set it before Start.
	Metrics *metrics.Registry

	// Targets lists the pipeline nodes' ports in physical ring order;
	// Alive reports whether a target can still accept frames.
	Targets []*serial.Port
	Alive   []func() bool

	srcPort  *serial.Port
	sinkPort *serial.Port

	latencyS   *metrics.Histogram
	sentCtr    *metrics.Counter
	droppedCtr *metrics.Counter
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
	// freeJobs heads the free list of recycled frame-delivery jobs.
	freeJobs *frameJob
	// jobs registers every job this host ever obtained, free or in
	// flight, so Release can return all of them to the process-wide pool
	// (a job whose process was killed mid-send never reaches the free
	// list on its own).
	jobs []*frameJob
}

// New returns a host on the network. Configure the exported fields, then
// call Start.
func New(k *sim.Kernel, net *serial.Network) *Host {
	return &Host{
		k:        k,
		net:      net,
		sinkPort: net.Port("host-sink"),
	}
}

// SinkPort is where pipeline nodes address final results.
func (h *Host) SinkPort() *serial.Port { return h.sinkPort }

// latencyBuckets bound the end-to-end frame latency histogram: from one
// pipeline traversal (a few seconds at D = 2.3 s) up to long post-death
// backlogs.
var latencyBuckets = []float64{2.5, 5, 7.5, 10, 15, 20, 30, 60, 120}

// Start spawns the source and sink processes. A host stopped before
// Start is a sink only: it collects results from self-paced sources
// and never opens its source port.
func (h *Host) Start() {
	h.latencyS = h.Metrics.Histogram("host_frame_latency_s", "", latencyBuckets)
	h.sentCtr = h.Metrics.Counter("host_frames_sent", "")
	h.droppedCtr = h.Metrics.Counter("host_frames_dropped", "")
	h.queueDepth = h.Metrics.Gauge("host_queue_depth", "")
	if !h.stopped {
		h.srcPort = h.net.Port("host-src")
		h.k.Spawn("host-src", h.runSource)
	}
	h.k.Spawn("host-sink", h.runSink)
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

// runSource emits one frame every D seconds, queued at the current
// role-1 node's port. The mains-powered host buffers freely: a frame the
// node is not yet ready for simply waits at the port (the paper's Fig 5
// host forwards over per-node PPP links and has no memory pressure), so
// a pipeline running a couple of percent over budget lags but never
// desynchronizes. If the role-1 node is known dead the next live node in
// ring order is addressed instead, which is how the host follows a
// post-failure migration.
func (h *Host) runSource(p *sim.Proc) {
	for frame := 0; ; frame++ {
		if h.MaxFrames > 0 && frame >= h.MaxFrames {
			h.stopped = true
			return
		}
		if err := p.WaitUntil(sim.Time(float64(frame) * h.D)); err != nil {
			return
		}
		if h.stopped {
			return
		}
		target := h.pickTarget(frame)
		if target == nil {
			h.FramesDropped++
			h.droppedCtr.Inc()
			continue
		}
		q := target.Pending() + 1
		if q > h.MaxQueue {
			h.MaxQueue = q
		}
		h.queueDepth.Set(float64(q))
		// Deliver from a dedicated process so pacing never blocks on a
		// busy node; the port preserves posting order. The process is
		// detached: nothing observes it, so the kernel may recycle it —
		// and the job carrier itself is recycled through h.freeJobs, so
		// a steady-state frame costs no closure allocation either.
		job := h.getJob(frame, target)
		h.k.SpawnDetached("host-frame", job.fn)
	}
}

// frameJob carries one frame delivery through a detached process. The
// fn closure is built once per job and closes over the job itself, so
// recycled jobs reuse it; frame and target are rewritten per delivery.
type frameJob struct {
	h      *Host
	frame  int
	target *serial.Port
	fn     func(p *sim.Proc)
	next   *frameJob
}

// jobPool recycles frame jobs across hosts (and therefore across runs),
// so a fresh rig warm-started after a previous run's Release allocates
// no job carriers at all.
var jobPool sync.Pool

// getJob pops (or creates) a job configured to deliver frame to target.
func (h *Host) getJob(frame int, target *serial.Port) *frameJob {
	j := h.freeJobs
	if j != nil {
		h.freeJobs = j.next
		j.next = nil
	} else {
		if v := jobPool.Get(); v != nil {
			j = v.(*frameJob)
			j.h = h
		} else {
			j = &frameJob{h: h}
			j.fn = func(p *sim.Proc) { j.deliver(p) }
		}
		h.jobs = append(h.jobs, j)
	}
	j.frame, j.target = frame, target
	return j
}

// Release returns every frame job — free or abandoned in flight — to the
// process-wide pool. Call only after the kernel has shut down, when no
// delivery process can still touch a job.
func (h *Host) Release() {
	for i, j := range h.jobs {
		j.h = nil
		j.target = nil
		j.next = nil
		jobPool.Put(j)
		h.jobs[i] = nil
	}
	h.jobs = nil
	h.freeJobs = nil
}

// deliver is the detached process body: one reliable frame send. The job
// returns itself to the free list on completion; a process killed
// mid-send unwinds past the release and the job is simply dropped.
func (j *frameJob) deliver(p *sim.Proc) {
	h := j.h
	msg := serial.Message{
		Kind:  serial.KindFrame,
		Frame: j.frame,
		KB:    h.FrameKB,
	}
	if h.MakeFrame != nil {
		msg.Payload = h.MakeFrame(j.frame)
	}
	err := h.srcPort.SendReliable(p, j.target, msg, serial.TxOpts{}, h.Retry)
	switch {
	case err == nil:
		h.FramesSent++
		h.sentCtr.Inc()
	case serial.IsFault(err):
		// The wire ate the frame past the retransmit budget.
		h.FramesDropped++
		h.droppedCtr.Inc()
	}
	j.target = nil
	j.next = h.freeJobs
	h.freeJobs = j
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

// runSink accepts results forever.
func (h *Host) runSink(p *sim.Proc) {
	for {
		msg, err := h.sinkPort.Recv(p)
		if err != nil {
			return
		}
		r := Result{Frame: msg.Frame, At: p.Now(), From: msg.From, Payload: msg.Payload}
		h.latencyS.Observe(h.Latency(r))
		if h.OnResult != nil {
			h.OnResult(r)
		}
	}
}
