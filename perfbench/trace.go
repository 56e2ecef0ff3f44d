package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// profArgs gives the extra dvsim flags that profile one call, by tag.
// A nil profArgs adds none.
type profArgs func(tag string) []string

func (p profArgs) args(tag string) []string {
	if p == nil {
		return nil
	}
	return p(tag)
}

// traced is the traced run. It measures one untraced pass of the
// workload, then the same pass with spans and CPU profiles, and reports
// the difference as tracing overhead. Per-layer numbers come from that
// pass's profile and spans, from the probe's timed calls into each
// module, from profiles of exp 2 and 2D on their own, and from the
// instrumented suite's work counts.
func (b *bench) traced() error {
	if _, err := os.Stat(filepath.Join(b.bin, "probe")); err != nil {
		return fmt.Errorf("missing binary: %w", err)
	}
	var profiles []string
	prof := profArgs(func(tag string) []string {
		p := filepath.Join(b.out, tag+".pprof")
		profiles = append(profiles, p)
		return []string{"-cpuprofile", p}
	})
	var untraced, withTrace float64
	switch b.workload {
	case "suite":
		golden, err := b.compareGolden()
		if err != nil {
			return err
		}
		untraced = b.suitePass(0, golden, 0, nil).dur.Seconds()
		b.metrics["suite.sim_h_per_s"] = b.ref.SuiteWallH / untraced
		b.tr = newTracer()
		root := b.tr.begin("suite", layerBench, 0, "")
		withTrace = b.suitePass(1, golden, root, prof).dur.Seconds()
		b.tr.end(root)
	case "batch":
		untraced = b.batchPass(0, nil)
		b.tr = newTracer()
		withTrace = b.batchPass(1, prof)
	case "serve":
		var err error
		if untraced, err = b.serveTraced(false); err != nil {
			return err
		}
		b.tr = newTracer()
		if withTrace, err = b.serveTraced(true); err != nil {
			return err
		}
		profiles = append(profiles, filepath.Join(b.out, "serve.pprof"))
	}
	b.metrics["trace.overhead_pct"] = 100 * (withTrace - untraced) / untraced
	spans := b.tr.all()
	b.tr = nil
	if err := writeSpans(filepath.Join(b.out, "spans.jsonl"), spans); err != nil {
		return err
	}
	self := selfTimes(spans)
	for _, l := range spanLayers {
		b.metrics["span."+l+".self_s"] = float64(self[l]) / 1e9
	}

	leaf := make(map[string]int64)
	for _, p := range profiles {
		l, err := leafCPU(p)
		if err != nil {
			return err
		}
		mergeLeaf(leaf, l)
	}
	b.shares("cpu.", leaf, b.workload)
	for _, exp := range []string{"2", "2D"} {
		p := filepath.Join(b.out, "exp"+exp+".pprof")
		if err := b.probe("profile", "-exp", exp, "-o", p); err != nil {
			return err
		}
		l, err := leafCPU(p)
		if err != nil {
			return err
		}
		b.shares("exp"+exp+".cpu.", l, "exp "+exp)
	}
	if err := b.workCounts(); err != nil {
		return err
	}
	return b.layerProbes()
}

// shares records one profile's cpu.* shares and names its top layer.
func (b *bench) shares(prefix string, leaf map[string]int64, what string) {
	sh := cpuShares(leaf)
	for m, v := range sh {
		b.metrics[prefix+m] = v
	}
	top, v := topModule(sh)
	var samples int64
	for _, ns := range leaf {
		samples += ns
	}
	b.notes["top layer, "+what] = fmt.Sprintf("cpu.%s %.1f%% of %.2f CPU-s", top, v, float64(samples)/1e9)
}

// batchPass is one pass of each batch phase; it returns their total
// time. The untraced pass also gives each phase's rate.
func (b *bench) batchPass(i int, prof profArgs) float64 {
	root := b.tr.begin("batch", layerBench, 0, "")
	defer b.tr.end(root)
	logs, records, nbytes, _ := b.logsPass(i, root, prof)
	mans, lines, _ := b.manifestsPass(i, root, prof)
	mc, _ := b.mcPass(i, root, prof)
	if prof == nil {
		b.metrics["batch.records_per_s"] = float64(records) / logs.Seconds()
		b.metrics["batch.lines_per_s"] = float64(lines) / mans.Seconds()
		b.metrics["batch.forks_per_s"] = batchForks / mc.Seconds()
	}
	b.metrics["telemetry.records"] = float64(records)
	b.metrics["telemetry.bytes"] = float64(nbytes)
	b.metrics["manifest.lines"] = float64(lines)
	b.metrics["core.forks"] = batchForks
	return (logs + mans + mc).Seconds()
}

// serveTraced runs the open rungs of the serve ladder, hits alone and
// the nominal 1x, on a warmed server: dvsimd untraced, or the probe's
// profiled in-process server with spans. The closed rungs are left out
// because the work they do grows with the server's speed, and the traced
// run's work counts must repeat exactly. It returns the hits-alone median
// latency in ms.
func (b *bench) serveTraced(traced bool) (float64, error) {
	tag := "untraced"
	if traced {
		tag = "traced"
	}
	var rungs []rung
	for _, g := range ladder(b.seconds) {
		if !g.closed {
			rungs = append(rungs, g)
		}
	}
	in, err := genServe(b.seed, rungs, hitSet(""), b.ref.MissCostOrder)
	if err != nil {
		return 0, err
	}
	s, err := b.warm(tag, traced)
	if err != nil {
		return 0, err
	}
	s.load(rungs, in)
	if err := s.finish(); err != nil {
		return 0, err
	}
	s.account()
	lat := s.latencies()
	if !traced {
		for k, v := range lat {
			b.metrics[k] = v
		}
		delete(b.metrics, "hits")
		delete(b.metrics, "misses")
		return lat["serve.hit_p50_ms"], nil
	}
	server, err := readSpans(filepath.Join(b.out, "server-spans.jsonl"))
	if err != nil {
		return 0, err
	}
	b.tr.add(server)
	byParent := make(map[int64]Span, len(server))
	for _, sp := range server {
		byParent[sp.Parent] = sp
	}
	client := make(map[int64]Span)
	for _, c := range b.tr.all() {
		client[c.ID] = c
	}
	var srvHit, srvMiss, transport []float64
	var records, nbytes, lines, rejected float64
	for _, q := range s.reqs {
		if q.code == http.StatusServiceUnavailable {
			rejected++
		}
		nbytes += float64(q.bytes)
		if q.miss && missSub(q.item).Manifest != "" || !q.miss && s.items[q.item].Sub.Manifest != "" {
			lines += float64(q.lines - 1)
		} else {
			records += float64(q.lines)
		}
		sp, ok := byParent[q.span]
		if !ok {
			continue
		}
		srv := float64(sp.End-sp.Start) / 1e6
		if q.miss {
			srvMiss = append(srvMiss, srv)
			continue
		}
		srvHit = append(srvHit, srv)
		if c, ok := client[q.span]; ok {
			transport = append(transport, float64(c.End-c.Start)/1e6-srv)
		}
	}
	b.metrics["service.server_hit_ms"] = median(srvHit)
	b.metrics["service.server_miss_ms"] = median(srvMiss)
	b.metrics["service.transport_ms"] = median(transport)
	b.metrics["service.rejected"] = rejected
	b.metrics["service.hits"] = float64(s.cacheHits)
	b.metrics["service.misses"] = float64(s.cacheMisses)
	if s.cacheHits+s.cacheMisses > 0 {
		b.metrics["service.hit_ratio"] = float64(s.cacheHits) / float64(s.cacheHits+s.cacheMisses)
	}
	b.metrics["telemetry.records"] = records
	b.metrics["telemetry.bytes"] = nbytes
	b.metrics["manifest.lines"] = lines
	return lat["serve.hit_p50_ms"], nil
}

// probe runs the probe binary and returns its standard output.
func (b *bench) probeOut(args ...string) ([]byte, error) {
	cmd := exec.Command(filepath.Join(b.bin, "probe"), args...)
	cmd.Dir = b.root
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("probe %s: %v: %s", args[0], err, trimErr(stderr.String()))
	}
	return out, nil
}

func (b *bench) probe(args ...string) error {
	_, err := b.probeOut(args...)
	return err
}

// layerProbes times calls into each module's public functions.
func (b *bench) layerProbes() error {
	t0 := time.Now()
	out, err := b.probeOut("layers", "-root", b.root, "-dir", filepath.Join(b.out, "cache-probe"))
	if err != nil {
		return err
	}
	var rep struct {
		Metrics           map[string]float64 `json:"metrics"`
		SerialSweepSHA256 string             `json:"serial_sweep_sha256"`
		EncodeRoundTrip   bool               `json:"encode_roundtrip"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return fmt.Errorf("probe layers: %w", err)
	}
	for k, v := range rep.Metrics {
		b.metrics[k] = v
	}
	status := opOK
	if want := b.ref.Manifests["serial_sweep"].SHA256; rep.SerialSweepSHA256 != want {
		b.mismatch("probe sweep: serial_sweep CSV sha256 %.12s, reference %.12s", rep.SerialSweepSHA256, want)
		status = opWrong
	}
	if !rep.EncodeRoundTrip {
		b.mismatch("probe encode: re-encoded exp 2D golden differs from the committed file")
		status = opWrong
	}
	b.done("probe", "probe layers", 0, t0, time.Since(t0), 0, "", status)
	return nil
}

// workCounts runs the instrumented suite (dvsim -metrics) and sums its
// counters: exact behaviour checksums of the engine, the same on every
// machine.
func (b *bench) workCounts() error {
	path := filepath.Join(b.out, "metrics.csv")
	r := b.cli("dvsim", 0, nil, "-metrics="+path)
	status := opOK
	if r.err != nil {
		b.mismatch("dvsim -metrics: %v: %s", r.err, trimErr(r.stderr))
		status = opWrong
	}
	b.done("counts", "dvsim -metrics", 0, r.start, r.dur, 0, "", status)
	if r.err != nil {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sums := map[string]string{
		"counter/node_frames_processed": "node.frames",
		"counter/node_mode_transitions": "node.mode_transitions",
		"counter/serial_tx_transfers":   "serial.transfers",
		"counter/serial_tx_kb":          "serial.kb",
		"series/sim_events_fired":       "sim.events",
	}
	for sc.Scan() {
		cols := strings.Split(sc.Text(), ",")
		if len(cols) < 4 {
			continue
		}
		v, err := strconv.ParseFloat(cols[3], 64)
		if err != nil {
			continue
		}
		key := cols[0] + "/" + cols[1]
		if name, ok := sums[key]; ok {
			b.metrics[name] += v
		}
		if key == "gauge/serial_pending_depth" {
			b.metrics["serial.max_pending"] = max(b.metrics["serial.max_pending"], v)
		}
	}
	return sc.Err()
}
