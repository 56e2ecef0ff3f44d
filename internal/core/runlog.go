package core

import (
	"io"
	"sort"
	"sync"

	"dvsim/internal/assert"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/host"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	telem "dvsim/internal/telemetry"
)

// Structured run logging: every observable event of a (bounded) run as
// JSON lines, for plotting and external analysis. The log is the
// machine-readable counterpart of the timing diagrams.

// LogRecord is one event in a run log.
type LogRecord struct {
	// T is the simulated time in seconds.
	T float64 `json:"t"`
	// Event is "mode", "result" or "death" for plain logs; telemetry
	// logs add "sample", "link", "latency", — when a fault scenario is
	// active — "fault" (an injected drop/garble/crash/restart) and
	// "retry" (a scheduled retransmission), — when a governor is
	// active — "govern" (one online DVS decision), and — when an
	// assertion catalog is active — "violation" (one failed invariant).
	Event string `json:"event"`
	// Node is the acting node ("node1", …); empty for host events. For
	// sample events it is the sampler's node label.
	Node string `json:"node,omitempty"`
	// Mode and MHz describe a mode span ("idle", "communication",
	// "computation"); End is the span's end time.
	Mode string  `json:"mode,omitempty"`
	MHz  float64 `json:"mhz,omitempty"`
	End  float64 `json:"end,omitempty"`
	// Frame tags result and latency events.
	Frame int `json:"frame,omitempty"`
	// From tags result events with the delivering node and link events
	// with the sending port; To is a link event's receiving port.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Metric and Value carry sample events (battery_soc, port_pending,
	// …); Value doubles as the seconds figure of latency events and the
	// observed quantity of violation events.
	Metric string  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`
	// Kind, KB and DurS describe a link event's transaction: message
	// kind, payload size and wire time (startup included). Kind also
	// tags fault and retry events with the affected message kind and
	// violation events with the assertion's operator type.
	Kind string  `json:"kind,omitempty"`
	KB   float64 `json:"kb,omitempty"`
	DurS float64 `json:"dur_s,omitempty"`
	// Fault is the injected fault kind ("drop", "garble", "crash",
	// "restart") of fault events, and the cause of retry events.
	Fault string `json:"fault,omitempty"`
	// Attempt is the failed transmission a retry event recovers from
	// (1-based); its backoff duration rides in Value.
	Attempt int `json:"attempt,omitempty"`
	// FromMHz is a govern event's pre-decision compute clock; the
	// decided clock rides in MHz and the frame's slack in Value.
	FromMHz float64 `json:"from_mhz,omitempty"`
	// Queue is a govern event's observed inbound backlog.
	Queue int `json:"queue,omitempty"`
	// Ctl carries a govern event's controller terms (governor.Terms).
	// The fixed-size array spares one heap allocation per govern event;
	// omitzero drops it when all three terms are zero, exactly as
	// omitempty dropped the empty slice.
	Ctl [3]float64 `json:"ctl,omitzero"`
	// Assert names a violation event's failed invariant; Detail is its
	// deterministic account and Bound the limit the observed Value
	// broke (see internal/assert).
	Assert string  `json:"assert,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// eventRank orders event kinds at equal timestamps, so logs are
// byte-identical across runs regardless of collection order. The full
// vocabulary and the ordering contract are documented in DESIGN.md §6.
func eventRank(event string) int {
	switch event {
	case "mode":
		return 0
	case "death":
		return 1
	case "govern":
		return 2
	case "fault":
		return 3
	case "retry":
		return 4
	case "link":
		return 5
	case "latency":
		return 6
	case "result":
		return 7
	case "sample":
		return 8
	case "violation":
		return 9
	default:
		return 10
	}
}

// lessRecord is the deterministic log order: time first, then event
// kind, then the identifying labels. Same-instant records from
// different collection passes (mode spans vs results vs samples) would
// otherwise land in map- or callback-dependent order.
func lessRecord(a, b LogRecord) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if ra, rb := eventRank(a.Event), eventRank(b.Event); ra != rb {
		return ra < rb
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	if a.Frame != b.Frame {
		return a.Frame < b.Frame
	}
	if a.Attempt != b.Attempt {
		return a.Attempt < b.Attempt
	}
	return a.Assert < b.Assert
}

// recorder gathers a run's observable events as LogRecords, on every
// engine: governHook rides in the engine configuration, attach wires
// the remaining observers once the rig is built, and collect finalizes
// the stream in deterministic order. It backs both Simulate's event log
// and its assertion checking.
//
// Records land in per-source buckets, one per event kind: the kernel
// fires events in time order, so each bucket is (near-)sorted under
// lessRecord as it is built, and collect finalizes with an O(n·sources)
// ordered merge instead of a global sort. The buckets and the merged
// slab are recycled through a process-wide pool — a long-lived host
// (the simulation server, sweeps, Monte Carlo runs) re-runs telemetry
// with a warm record store and allocates nothing per record.
type recorder struct {
	telemetry bool
	// Runtime buckets, appended by the hooks as the simulation runs.
	govern  []LogRecord
	fault   []LogRecord
	retry   []LogRecord
	link    []LogRecord
	latency []LogRecord
	result  []LogRecord
	// scratch assembles the post-run streams (per-node mode spans and
	// deaths, per-series samples); ranges delimits each stream within it.
	scratch []LogRecord
	ranges  []streamRange
	// merged is the final ordered slab handed to the caller; streams and
	// cursor are merge scratch state.
	merged  []LogRecord
	streams [][]LogRecord
	cursor  []int
}

// streamRange delimits one merge stream inside recorder.scratch.
type streamRange struct{ lo, hi int }

// recorderPool recycles record stores across runs.
var recorderPool sync.Pool

// newRecorder returns a pooled (or fresh) recorder with the merged slab
// pre-sized to capHint records.
func newRecorder(telemetry bool, capHint int) *recorder {
	rc, _ := recorderPool.Get().(*recorder)
	if rc == nil {
		rc = &recorder{}
	}
	rc.telemetry = telemetry
	if cap(rc.merged) < capHint {
		rc.merged = make([]LogRecord, 0, capHint)
	}
	return rc
}

// release clears the record store and returns it to the pool; a nil
// recorder is a no-op. The caller must be done with every slice
// obtained from collect — the backing arrays are recycled into the next
// run's recorder.
func (rc *recorder) release() {
	if rc == nil {
		return
	}
	for _, b := range [][]LogRecord{rc.govern, rc.fault, rc.retry, rc.link, rc.latency, rc.result, rc.scratch, rc.merged} {
		clear(b) // drop string references
	}
	rc.govern, rc.fault, rc.retry = rc.govern[:0], rc.fault[:0], rc.retry[:0]
	rc.link, rc.latency, rc.result = rc.link[:0], rc.latency[:0], rc.result[:0]
	rc.scratch, rc.merged = rc.scratch[:0], rc.merged[:0]
	rc.ranges = rc.ranges[:0]
	clear(rc.streams)
	rc.streams = rc.streams[:0]
	rc.cursor = rc.cursor[:0]
	recorderPool.Put(rc)
}

// estimateRecords sizes the merged slab from the experiment shape: per
// frame each node contributes a handful of mode spans and link/result
// events, and the samplers add one record per period per series.
func estimateRecords(p Params, nodes int, until float64, telemetry bool) int {
	frames := int(until/p.FrameDelayS) + 1
	est := frames * (3*nodes + 2)
	if telemetry {
		est += frames * (2*nodes + 2)
		period := DefaultSamplePeriodS
		est += int(until/period+1) * (4*nodes + 1)
	}
	return est + 256
}

// governHook chains the recorder behind the caller's governor observer
// (nil for none); the result goes into the engine configuration.
func (rc *recorder) governHook(prev func(string, governor.Event)) func(string, governor.Event) {
	return func(nodeName string, ev governor.Event) {
		if prev != nil {
			prev(nodeName, ev)
		}
		rc.govern = append(rc.govern, LogRecord{
			T: ev.Obs.NowS, Event: "govern", Node: nodeName,
			Frame: ev.Frame, FromMHz: ev.From.FreqMHz, MHz: ev.To.FreqMHz,
			Value: ev.Obs.SlackS, Queue: ev.Obs.QueueIn,
			Ctl: ev.Terms,
		})
	}
}

// attach wires the post-build observers onto the rig: results always,
// and for the full vocabulary every serial transaction, retransmission,
// injected fault and frame latency. Nothing has fired yet, so no event
// is missed.
func (rc *recorder) attach(r *rig) {
	if rc.telemetry {
		r.net.OnTransfer = func(ev serial.TransferEvent) {
			rc.link = append(rc.link, LogRecord{
				T: float64(ev.T), Event: "link",
				From: ev.From, To: ev.To,
				Kind: ev.Kind.String(), KB: ev.KB, DurS: ev.DurS,
			})
		}
		r.net.OnRetry = func(ev serial.RetryEvent) {
			rc.retry = append(rc.retry, LogRecord{
				T: float64(ev.T), Event: "retry",
				From: ev.From, To: ev.To,
				Kind: ev.Kind.String(), Frame: ev.Frame,
				Attempt: ev.Attempt, Value: ev.BackoffS,
				Fault: ev.Cause.String(),
			})
		}
		if r.inj != nil {
			r.inj.OnFault = func(ev fault.Event) {
				rc.fault = append(rc.fault, LogRecord{
					T: float64(ev.T), Event: "fault", Fault: ev.Kind,
					Node: ev.Node, From: ev.From, To: ev.To,
					Kind: ev.MsgKind, Frame: ev.Frame,
				})
			}
		}
	}
	d := r.d
	r.observe = func(res host.Result) {
		rc.result = append(rc.result, LogRecord{
			T: float64(res.At), Event: "result", Frame: res.Frame, From: res.From,
		})
		if rc.telemetry {
			// End-to-end latency: arrival minus the instant the frame
			// entered the system (frame·D).
			rc.latency = append(rc.latency, LogRecord{
				T: float64(res.At), Event: "latency", Frame: res.Frame,
				From: res.From, Value: float64(res.At) - float64(res.Frame)*d,
			})
		}
	}
}

// collect finalizes the record stream after the run: node mode traces
// and deaths and the sampler series are gathered as further per-source
// streams, every stream is verified (or restored) to lessRecord order,
// and one ordered merge produces the canonical stream — O(n·sources)
// instead of the global O(n log n) sort it replaces. The result aliases
// the recorder's pooled slab; it is valid until release.
func (rc *recorder) collect(r *rig) []LogRecord {
	// Finishing the metering settles the last segment, which may kill
	// a node: read DeadAt only afterwards.
	for _, n := range r.nodes {
		n.Power().Finish()
		rc.modes(n.Name, n.Power().Trace(), n.DeadAt)
	}
	for _, w := range r.workers {
		w.Power().Finish()
		rc.modes(w.Name, w.Power().Trace(), w.DeadAt)
	}
	// Per-series stream: one sampler's points are strictly time-ordered.
	if rc.telemetry {
		for _, s := range r.reg.Snapshot().Series {
			lo := len(rc.scratch)
			for _, pt := range s.Samples {
				rc.scratch = append(rc.scratch, LogRecord{
					T: float64(pt.T), Event: "sample",
					Node: s.Node, Metric: s.Name, Value: pt.V,
				})
			}
			rc.ranges = append(rc.ranges, streamRange{lo, len(rc.scratch)})
		}
	}
	return rc.finalize()
}

// modes adds one node's stream: its mode spans (chronological by
// construction), then the death record, whose rank sorts it after a
// span starting at the same instant.
func (rc *recorder) modes(name string, trace []node.ModeSpan, deadAt sim.Time) {
	lo := len(rc.scratch)
	for _, span := range trace {
		rc.scratch = append(rc.scratch, LogRecord{
			T:     float64(span.Start),
			End:   float64(span.End),
			Event: "mode",
			Node:  name,
			Mode:  span.Mode.String(),
			MHz:   span.Op.FreqMHz,
		})
	}
	if deadAt > 0 {
		rc.scratch = append(rc.scratch, LogRecord{
			T: float64(deadAt), Event: "death", Node: name,
		})
	}
	rc.ranges = append(rc.ranges, streamRange{lo, len(rc.scratch)})
}

// finalize materializes the merge streams — the scratch ranges plus the
// runtime buckets — restores any stream that lost lessRecord order, and
// merges them into the canonical record stream. Streams materialize
// only after scratch stops growing (append may move the backing array).
// The result aliases the recorder's pooled slab; it is valid until
// release.
func (rc *recorder) finalize() []LogRecord {
	rc.streams = rc.streams[:0]
	for _, rg := range rc.ranges {
		rc.streams = append(rc.streams, rc.scratch[rg.lo:rg.hi])
	}
	rc.streams = append(rc.streams, rc.govern, rc.fault, rc.retry, rc.link, rc.latency, rc.result)
	for _, s := range rc.streams {
		ensureOrdered(s)
	}
	rc.merged = mergeRecords(rc.merged[:0], rc.streams, &rc.cursor)
	return rc.merged
}

// ensureOrdered restores lessRecord order within one stream. Streams
// are sorted by construction in all known cases (the check is one linear
// pass); the stable sort is a correctness net for same-instant records
// whose bucket-internal keys disagree with arrival order.
func ensureOrdered(s []LogRecord) {
	for i := 1; i < len(s); i++ {
		if lessRecord(s[i], s[i-1]) {
			sort.SliceStable(s, func(a, b int) bool { return lessRecord(s[a], s[b]) })
			return
		}
	}
}

// mergeRecords k-way-merges the sorted streams into dst. Ties pick the
// earliest stream, making the merge stable in stream order; cursor is
// reusable scratch for the per-stream positions.
func mergeRecords(dst []LogRecord, streams [][]LogRecord, cursor *[]int) []LogRecord {
	idx := (*cursor)[:0]
	total := 0
	for _, s := range streams {
		idx = append(idx, 0)
		total += len(s)
	}
	*cursor = idx
	for len(dst) < total {
		best := -1
		for si, s := range streams {
			if idx[si] >= len(s) {
				continue
			}
			if best < 0 || lessRecord(s[idx[si]], streams[best][idx[best]]) {
				best = si
			}
		}
		dst = append(dst, streams[best][idx[best]])
		idx[best]++
	}
	return dst
}

// recordView converts a LogRecord to the assertion engine's mirrored
// view; field order follows the struct. The engine's Ctl stays a slice;
// a record without controller terms maps to nil, as before the array
// representation.
func recordView(r LogRecord) assert.Record {
	var ctl []float64
	if r.Ctl != ([3]float64{}) {
		ctl = r.Ctl[:]
	}
	return assert.Record{
		T: r.T, Event: r.Event, Node: r.Node,
		Mode: r.Mode, MHz: r.MHz, End: r.End,
		Frame: r.Frame, From: r.From, To: r.To,
		Metric: r.Metric, Value: r.Value,
		Kind: r.Kind, KB: r.KB, DurS: r.DurS,
		Fault: r.Fault, Attempt: r.Attempt,
		FromMHz: r.FromMHz, Queue: r.Queue, Ctl: ctl,
		Assert: r.Assert, Detail: r.Detail, Bound: r.Bound,
	}
}

// evalAssertions streams the sorted records through the engine and
// closes it at the last record's timestamp — the same end-of-stream
// rule Replay applies offline, which is what makes online and offline
// verdicts identical.
func evalAssertions(eng *assert.Engine, records []LogRecord) []assert.Violation {
	for _, r := range records {
		eng.Observe(recordView(r))
	}
	var endT float64
	if n := len(records); n > 0 {
		endT = records[n-1].T
	}
	eng.Finish(endT)
	return eng.Violations()
}

// violationRecords renders violations as telemetry events.
func violationRecords(vio []assert.Violation) []LogRecord {
	out := make([]LogRecord, len(vio))
	for i, v := range vio {
		out[i] = LogRecord{
			T: v.T, Event: "violation", Node: v.Node, Frame: v.Frame,
			Kind: v.Type, Assert: v.Assertion, Value: v.Value,
			Bound: v.Bound, Detail: v.Detail,
		}
	}
	return out
}

// withViolations merges a checked run's verdicts into its record
// stream as "violation" events.
func withViolations(records []LogRecord, vio []assert.Violation) []LogRecord {
	if len(vio) == 0 {
		return records
	}
	vr := violationRecords(vio)
	ensureOrdered(vr)
	merged := make([]LogRecord, 0, len(records)+len(vr))
	var cursor []int
	return mergeRecords(merged, [][]LogRecord{records, vr}, &cursor)
}

// writeLog encodes the records to w as JSON lines. On a mid-stream
// write failure the count is the number of records whose bytes fully
// reached w, not zero — the caller knows how much of the log is intact.
func writeLog(w io.Writer, records []LogRecord) (int, error) {
	enc := telem.NewEncoder(w)
	for i := range records {
		encodeRecord(enc, &records[i])
		if enc.Err() != nil {
			break
		}
	}
	enc.Flush()
	return enc.Flushed(), enc.Err()
}

// encodeRecord appends one record in LogRecord's field order with the
// struct tags' omitempty/omitzero semantics, byte-identical to
// encoding/json (see internal/telemetry).
func encodeRecord(enc *telem.Encoder, r *LogRecord) {
	enc.Begin()
	enc.Float("t", r.T)
	enc.Str("event", r.Event)
	enc.StrOmit("node", r.Node)
	enc.StrOmit("mode", r.Mode)
	enc.FloatOmit("mhz", r.MHz)
	enc.FloatOmit("end", r.End)
	enc.IntOmit("frame", r.Frame)
	enc.StrOmit("from", r.From)
	enc.StrOmit("to", r.To)
	enc.StrOmit("metric", r.Metric)
	enc.FloatOmit("value", r.Value)
	enc.StrOmit("kind", r.Kind)
	enc.FloatOmit("kb", r.KB)
	enc.FloatOmit("dur_s", r.DurS)
	enc.StrOmit("fault", r.Fault)
	enc.IntOmit("attempt", r.Attempt)
	enc.FloatOmit("from_mhz", r.FromMHz)
	enc.IntOmit("queue", r.Queue)
	if r.Ctl != ([3]float64{}) {
		enc.Floats("ctl", r.Ctl[:])
	}
	enc.StrOmit("assert", r.Assert)
	enc.StrOmit("detail", r.Detail)
	enc.FloatOmit("bound", r.Bound)
	enc.End()
}
