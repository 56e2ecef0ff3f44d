package core

import (
	"bytes"
	"cmp"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dvsim/internal/assert"
	"dvsim/internal/chunk"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/host"
	"dvsim/internal/metrics"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sweep"
	telem "dvsim/internal/telemetry"
)

// Structured run logging: every observable event of a (bounded) run as
// JSON lines, for plotting and external analysis. The log is the
// machine-readable counterpart of the timing diagrams.

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
// different sources (mode spans vs results vs samples) would otherwise
// land in map- or callback-dependent order.
func lessRecord(a, b *telem.Record) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if ra, rb := eventRank(a.Event), eventRank(b.Event); ra != rb {
		return ra < rb
	}
	return compareLabels(a, b) < 0
}

// compareLabels orders two same-instant records of one event kind by
// their identifying labels: the tail of lessRecord.
func compareLabels(a, b *telem.Record) int {
	return cmp.Or(
		strings.Compare(a.Node, b.Node),
		strings.Compare(a.Metric, b.Metric),
		strings.Compare(a.From, b.From),
		strings.Compare(a.To, b.To),
		cmp.Compare(a.Frame, b.Frame),
		cmp.Compare(a.Attempt, b.Attempt),
		strings.Compare(a.Assert, b.Assert),
	)
}

// recorder gathers a run's observable events on every engine: a
// governor observer rides in the engine configuration and attach wires
// the remaining observers once the rig is built. Each hook appends the
// event it receives, as is, to its own typed bucket; a record exists
// only as the head of a merge source (see merge). The buckets are chunk
// lists, so a long run's appends never copy earlier events. The
// recorder backs both Simulate's event log and its assertion checking.
type recorder struct {
	govern chunk.List[governEvent]
	fault  chunk.List[fault.Event]
	retry  chunk.List[serial.RetryEvent]
	link   chunk.List[serial.TransferEvent]
	// result backs both the "result" and the "latency" stream.
	result chunk.List[host.Result]
}

// governEvent is one governor decision and the node that made it.
type governEvent struct {
	node string
	ev   governor.Event
}

// attach wires the post-build observers onto the rig: every serial
// transaction, retransmission, injected fault and result. Nothing has
// fired yet, so no event is missed.
func (rc *recorder) attach(r *rig) {
	r.net.OnTransfer = func(ev serial.TransferEvent) { rc.link.Append(ev) }
	r.net.OnRetry = func(ev serial.RetryEvent) { rc.retry.Append(ev) }
	if r.inj != nil {
		r.inj.OnFault = func(ev fault.Event) { rc.fault.Append(ev) }
	}
	r.observe = func(res host.Result) {
		// No record shows a native run's payload; dropping it here keeps
		// the decoded frames collectable.
		res.Payload = nil
		rc.result.Append(res)
	}
}

// merge returns the cursor over the run's records. The sources are
// listed in tie order — per node its mode spans, the deaths, per
// sampled series its points, then the hook
// buckets — and each reads its events in place: the nodes' mode traces
// and death instants, the points of series (the outcome's metrics
// snapshot) and the buckets. Call it once the nodes' metering is
// finished.
func (rc *recorder) merge(r *rig, series []metrics.SeriesValue) *merger {
	var srcs []source
	var dead chunk.List[*node.Node]
	for _, n := range r.nodes {
		srcs = append(srcs, modeSource(n.Name, n.Power().Trace()))
		if n.DeadAt > 0 {
			dead.Append(n)
		}
	}
	srcs = append(srcs, bucket("death", &dead, func(n **node.Node) float64 { return float64((*n).DeadAt) }, deathRecord))
	for i := range series {
		s := &series[i]
		srcs = append(srcs, source{rank: eventRank("sample"), n: len(s.Samples), load: func(i int, rec *telem.Record) {
			pt := &s.Samples[i]
			*rec = telem.Record{T: pt.T, Event: "sample", Node: s.Node, Metric: s.Name, Value: pt.V}
		}})
	}
	// The result bucket is checked once: the latency stream reads it as
	// checked, since both renders order by the same From and Frame labels.
	result := bucket("result", &rc.result, func(res *host.Result) float64 { return float64(res.At) }, resultRecord)
	// End-to-end latency: arrival minus the instant the frame entered the
	// system (frame·D).
	d := r.d
	srcs = append(srcs,
		bucket("govern", &rc.govern, func(g *governEvent) float64 { return g.ev.Obs.NowS }, governRecord),
		bucket("fault", &rc.fault, func(ev *fault.Event) float64 { return float64(ev.T) }, faultRecord),
		bucket("retry", &rc.retry, func(ev *serial.RetryEvent) float64 { return float64(ev.T) }, retryRecord),
		bucket("link", &rc.link, func(ev *serial.TransferEvent) float64 { return float64(ev.T) }, linkRecord),
		stream("latency", &rc.result, func(res *host.Result, rec *telem.Record) {
			*rec = telem.Record{
				T: float64(res.At), Event: "latency", Frame: res.Frame,
				From: res.From, Value: float64(res.At) - float64(res.Frame)*d,
			}
		}),
		result)
	return &merger{srcs: srcs}
}

// modeSource reads one node's mode spans, chronological by
// construction.
func modeSource(name string, trace *chunk.List[node.ModeSpan]) source {
	return stream("mode", trace, func(sp *node.ModeSpan, rec *telem.Record) {
		*rec = telem.Record{
			T: float64(sp.Start), End: float64(sp.End), Event: "mode",
			Node: name, Mode: sp.Mode.String(), MHz: sp.Op.FreqMHz,
		}
	})
}

func deathRecord(n **node.Node, rec *telem.Record) {
	*rec = telem.Record{T: float64((*n).DeadAt), Event: "death", Node: (*n).Name}
}

func governRecord(g *governEvent, rec *telem.Record) {
	ev := &g.ev
	*rec = telem.Record{
		T: ev.Obs.NowS, Event: "govern", Node: g.node,
		Frame: ev.Frame, FromMHz: ev.From.FreqMHz, MHz: ev.To.FreqMHz,
		Value: ev.Obs.SlackS, Queue: ev.Obs.QueueIn,
		Ctl: ev.Terms,
	}
}

func faultRecord(ev *fault.Event, rec *telem.Record) {
	*rec = telem.Record{
		T: float64(ev.T), Event: "fault", Fault: ev.Kind,
		Node: ev.Node, From: ev.From, To: ev.To,
		Kind: ev.MsgKind, Frame: ev.Frame,
	}
}

func retryRecord(ev *serial.RetryEvent, rec *telem.Record) {
	*rec = telem.Record{
		T: float64(ev.T), Event: "retry",
		From: ev.From, To: ev.To,
		Kind: ev.Kind.String(), Frame: ev.Frame,
		Attempt: ev.Attempt, Value: ev.BackoffS,
		Fault: ev.Cause.String(),
	}
}

func linkRecord(ev *serial.TransferEvent, rec *telem.Record) {
	*rec = telem.Record{
		T: float64(ev.T), Event: "link",
		From: ev.From, To: ev.To,
		Kind: ev.Kind.String(), KB: ev.KB, DurS: ev.DurS,
	}
}

func resultRecord(res *host.Result, rec *telem.Record) {
	*rec = telem.Record{T: float64(res.At), Event: "result", Frame: res.Frame, From: res.From}
}

// violationRecord renders a violation as a telemetry event.
func violationRecord(v *assert.Violation, rec *telem.Record) {
	*rec = telem.Record{
		T: v.T, Event: "violation", Node: v.Node, Frame: v.Frame,
		Kind: v.Type, Assert: v.Assertion, Value: v.Value,
		Bound: v.Bound, Detail: v.Detail,
	}
}

// source is one merge stream, read in place where the run left it: n
// records of one event kind (rank is its eventRank), the i-th rendered
// into a record by load only when it becomes the stream's head.
// Every source is in lessRecord order, so in particular by time.
type source struct {
	rank int
	n    int
	load func(i int, rec *telem.Record)
}

// search returns the position of the source's first record at or after
// instant t.
func (s *source) search(t float64) int {
	var rec telem.Record
	return sort.Search(s.n, func(i int) bool {
		s.load(i, &rec)
		return rec.T >= t
	})
}

// stream makes the source of a chunk list's events, already in
// lessRecord order.
func stream[E any](event string, evs *chunk.List[E], render func(*E, *telem.Record)) source {
	return source{rank: eventRank(event), n: evs.Len(), load: func(i int, rec *telem.Record) { render(evs.At(i), rec) }}
}

// bucket makes the source of a hook's typed bucket, first restoring
// lessRecord order within it; at reads an event's instant, the T its
// render gives.
func bucket[E any](event string, evs *chunk.List[E], at func(*E) float64, render func(*E, *telem.Record)) source {
	ensureOrdered(evs, at, render)
	return stream(event, evs, render)
}

// ensureOrdered restores lessRecord order within one bucket. The kernel
// fires events in time order, so buckets are sorted by construction in
// all known cases and the check is one linear pass over the events'
// instants, rendering records only for neighbours at one instant;
// rebuilding the bucket from a stably sorted flat copy is a correctness
// net for same-instant events whose labels disagree with arrival order.
func ensureOrdered[E any](evs *chunk.List[E], at func(*E) float64, render func(*E, *telem.Record)) {
	var pair [2]telem.Record
	for i := 1; i < evs.Len(); i++ {
		prev, cur := evs.At(i-1), evs.At(i)
		// Apart from equal instants this is lessRecord's test, NaN
		// included: a later or unordered instant keeps the order.
		if tp, tc := at(prev), at(cur); tc == tp {
			render(prev, &pair[0])
			render(cur, &pair[1])
			if compareLabels(&pair[1], &pair[0]) >= 0 {
				continue
			}
		} else if !(tc < tp) {
			continue
		}
		flat := evs.Slice()
		sort.SliceStable(flat, func(a, b int) bool {
			render(&flat[a], &pair[0])
			render(&flat[b], &pair[1])
			return lessRecord(&pair[0], &pair[1])
		})
		*evs = chunk.List[E]{}
		for _, e := range flat {
			evs.Append(e)
		}
		return
	}
}

// merger is the k-way merge over the sources: a binary min-heap of the
// sources that still have a head, ordered by lessRecord with ties going
// to the earlier source, so the merge is stable in source order. Only
// the heads are ever materialized. A pass covers every record or, for a
// time shard, one position range per source.
type merger struct {
	srcs  []source
	pos   []int          // index of each source's head
	end   []int          // one past each source's last record in the pass
	heads []telem.Record // each source's current head
	heap  []int          // sources with a head; heap[0] holds the least
	top   int            // source whose head next returned last, or -1
}

// rewind starts a pass over the merge from every source's first record.
func (m *merger) rewind() { m.start(nil, nil) }

// start begins a pass over positions lo[i] ≤ j < hi[i] of each source
// i, or over every record when lo and hi are nil. It reuses the
// cursor's arrays when they are large enough.
func (m *merger) start(lo, hi []int) {
	n := len(m.srcs)
	if cap(m.pos) < n {
		m.pos, m.end, m.heads, m.heap = make([]int, n), make([]int, n), make([]telem.Record, n), make([]int, 0, n)
	}
	m.pos, m.end, m.heads, m.heap = m.pos[:n], m.end[:n], m.heads[:n], m.heap[:0]
	for i, s := range m.srcs {
		m.pos[i], m.end[i] = 0, s.n
		if lo != nil {
			m.pos[i], m.end[i] = lo[i], hi[i]
		}
		if m.pos[i] < m.end[i] {
			s.load(m.pos[i], &m.heads[i])
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	m.top = -1
}

// next returns the next record in canonical order, or nil once every
// source is drained. The record is valid until the following call.
func (m *merger) next() *telem.Record {
	if i := m.top; i >= 0 {
		m.pos[i]++
		if m.pos[i] < m.end[i] {
			m.srcs[i].load(m.pos[i], &m.heads[i])
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	if len(m.heap) == 0 {
		m.top = -1
		return nil
	}
	m.top = m.heap[0]
	return &m.heads[m.top]
}

// down sifts the source at heap position i down to its place.
func (m *merger) down(i int) {
	h := m.heap
	for {
		least := i
		if l := 2*i + 1; l < len(h) && m.before(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && m.before(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// before orders sources a and b by their heads: lessRecord, with each
// source's fixed rank standing in for eventRank, and ties to the earlier
// source.
func (m *merger) before(a, b int) bool {
	x, y := &m.heads[a], &m.heads[b]
	if x.T != y.T {
		return x.T < y.T
	}
	if ra, rb := m.srcs[a].rank, m.srcs[b].rank; ra != rb {
		return ra < rb
	}
	if c := compareLabels(x, y); c != 0 {
		return c < 0
	}
	return a < b
}

// Time shards. The merge emits records in time order, and at a shard's
// first instant t every source's head sits at its first record at or
// after t; so merging each source's range [search(t_k), search(t_k+1))
// one shard after another yields the full pass exactly, ties included.
const (
	// shardRecords is a shard's target size in records.
	shardRecords = 4096
	// minShards is the fewest shards a log is split into; a smaller log
	// is written as one, since the boundary searches and the hand-off
	// to workers are paid whatever the log's size.
	minShards = 8
	// shardSample is the spacing, in records per source, of the instants
	// sampled to place the shard boundaries.
	shardSample = 64
)

// shards splits the pass into time shards of about shardRecords
// records. It returns the boundaries, each one position per source, from
// every source's start to every source's end: shard k covers
// [bounds[k][i], bounds[k+1][i]) of source i. It returns nil for a log
// under minShards shards' worth of records.
func (m *merger) shards() [][]int {
	total := 0
	for _, s := range m.srcs {
		total += s.n
	}
	if total < minShards*shardRecords {
		return nil
	}
	// Every sampled instant stands for shardSample records; a boundary
	// falls on each shardRecords' worth of sorted samples.
	var ts []float64
	var rec telem.Record
	for _, s := range m.srcs {
		for i := shardSample / 2; i < s.n; i += shardSample {
			s.load(i, &rec)
			ts = append(ts, rec.T)
		}
	}
	slices.Sort(ts)
	bounds := [][]int{make([]int, len(m.srcs))}
	prev := 0
	for j := shardRecords / shardSample; j < len(ts); j += shardRecords / shardSample {
		b, sum := make([]int, len(m.srcs)), 0
		for i := range m.srcs {
			b[i] = m.srcs[i].search(ts[j])
			sum += b[i]
		}
		if sum > prev {
			bounds, prev = append(bounds, b), sum
		}
	}
	end := make([]int, len(m.srcs))
	for i, s := range m.srcs {
		end[i] = s.n
	}
	return append(bounds, end)
}

// evalAssertions streams one pass of the merge through the engine and
// closes it at the last record's timestamp — the same end-of-stream
// rule Replay applies offline, which is what makes online and offline
// verdicts identical.
func evalAssertions(eng *assert.Engine, m *merger) []assert.Violation {
	var endT float64
	m.rewind()
	for r := m.next(); r != nil; r = m.next() {
		eng.Observe(r)
		endT = r.T
	}
	eng.Finish(endT)
	return eng.Violations()
}

// writeLog encodes one pass of the merge to w as JSON lines. When the
// run is alone in the process and has more than one processor, a log of
// minShards shards' worth of records or more is split into time shards
// encoded in parallel (see writeShards); otherwise the log streams
// record by record off the merge on the caller's goroutine. Either way
// the bytes are the same, and so is the count: on a write failure or an
// unsupported value it is the number of records whose bytes fully
// reached w, not zero, so the caller knows how much of the log is
// intact.
func writeLog(w io.Writer, m *merger, alone bool) (int, error) {
	if workers := runtime.GOMAXPROCS(0); alone && workers > 1 {
		if bounds := m.shards(); bounds != nil {
			return writeShards(w, m, bounds, workers)
		}
	}
	return writeOne(w, m)
}

// writeOne encodes the merge as one shard, each record as it comes off
// the merge.
func writeOne(w io.Writer, m *merger) (int, error) {
	enc := telem.NewEncoder(w)
	m.rewind()
	for r := m.next(); r != nil && enc.Err() == nil; r = m.next() {
		encodeRecord(enc, r)
	}
	enc.Flush()
	return enc.Flushed(), enc.Err()
}

// shardWork is one shard's merge cursor, encoder and encoded bytes.
// Shards recycle them in order, the encoder keeping its number memo.
type shardWork struct {
	m   merger
	enc *telem.Encoder
	buf bytes.Buffer
}

// writeShards encodes the shards between bounds on up to workers
// goroutines, each shard into its own buffer, and writes the buffers to
// w in shard order from the caller's goroutine. At most two shards per
// worker are in flight, so as many buffers live at once; a write error
// or an unsupported value stops the encoding and returns once every
// worker has stopped.
func writeShards(w io.Writer, m *merger, bounds [][]int, workers int) (int, error) {
	window := 2 * workers
	// free holds the idle shardWork values: at most window exist, one
	// per shard in flight, so returning one never blocks.
	free := make(chan *shardWork, window)
	records := 0
	var err error
	sweep.Ordered(len(bounds)-1, workers, window, func(k int) *shardWork {
		var sw *shardWork
		select {
		case sw = <-free:
			sw.buf.Reset()
			sw.enc.Reset(&sw.buf)
		default:
			sw = &shardWork{m: merger{srcs: m.srcs}}
			sw.enc = telem.NewEncoder(&sw.buf)
		}
		sw.m.start(bounds[k], bounds[k+1])
		for r := sw.m.next(); r != nil && sw.enc.Err() == nil; r = sw.m.next() {
			encodeRecord(sw.enc, r)
		}
		sw.enc.Flush()
		return sw
	}, func(sw *shardWork) bool {
		// A shard that met an unsupported value still holds the whole
		// records before it; they go out first, as they would from
		// writeOne.
		if b := sw.buf.Bytes(); len(b) > 0 {
			if n, werr := w.Write(b); werr != nil {
				records += bytes.Count(b[:max(0, min(n, len(b)))], []byte{'\n'})
				err = werr
				return false
			}
		}
		records += sw.enc.Flushed()
		if err = sw.enc.Err(); err != nil {
			return false
		}
		free <- sw
		return true
	})
	return records, err
}

// encodeRecord appends one record in telemetry.Record's field order
// with the struct tags' omitempty/omitzero semantics, byte-identical to
// encoding/json (see internal/telemetry). Each key and its separator is
// one constant fragment: "t" always leads, so every later field starts
// with its comma.
func encodeRecord(enc *telem.Encoder, r *telem.Record) {
	b := enc.Open()
	b = enc.AppendFloat(append(b, `"t":`...), r.T)
	b = telem.AppendString(append(b, `,"event":`...), r.Event)
	b = appendStr(b, `,"node":`, r.Node)
	b = appendStr(b, `,"mode":`, r.Mode)
	b = appendNum(enc, b, `,"mhz":`, r.MHz)
	b = appendNum(enc, b, `,"end":`, r.End)
	b = appendInt(b, `,"frame":`, r.Frame)
	b = appendStr(b, `,"from":`, r.From)
	b = appendStr(b, `,"to":`, r.To)
	b = appendStr(b, `,"metric":`, r.Metric)
	b = appendNum(enc, b, `,"value":`, r.Value)
	b = appendStr(b, `,"kind":`, r.Kind)
	b = appendNum(enc, b, `,"kb":`, r.KB)
	b = appendNum(enc, b, `,"dur_s":`, r.DurS)
	b = appendStr(b, `,"fault":`, r.Fault)
	b = appendInt(b, `,"attempt":`, r.Attempt)
	b = appendNum(enc, b, `,"from_mhz":`, r.FromMHz)
	b = appendInt(b, `,"queue":`, r.Queue)
	if c := &r.Ctl; *c != ([3]float64{}) {
		b = enc.AppendFloat(append(b, `,"ctl":[`...), c[0])
		b = enc.AppendFloat(append(b, ','), c[1])
		b = append(enc.AppendFloat(append(b, ','), c[2]), ']')
	}
	b = appendStr(b, `,"assert":`, r.Assert)
	b = appendStr(b, `,"detail":`, r.Detail)
	b = appendNum(enc, b, `,"bound":`, r.Bound)
	enc.Commit(b)
}

// appendStr, appendNum and appendInt append key and v unless v is
// empty or zero (omitempty).
func appendStr(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return telem.AppendString(append(b, key...), v)
}

func appendNum(enc *telem.Encoder, b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return enc.AppendFloat(append(b, key...), v)
}

func appendInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}
