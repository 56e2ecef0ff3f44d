package main

import (
	"bytes"
	"fmt"
	"time"
)

// The batch workload's inputs. Logs are full-window (30 h) telemetry
// runs; manifests are the committed fleet sweeps; the Monte Carlo forks
// exp 2D's warm state sixteen ways.
var (
	batchLogs      = []string{"1", "2C", "2D"}
	batchManifests = []string{"serial_sweep", "tree_scaling", "mesh_faults"}
)

const (
	batchWorkers = "2"
	batchForks   = 16
)

func manifestPath(name string) string { return "scenarios/manifests/" + name + ".toml" }

// batch times three phases on their own, each for its share of the
// budget: telemetry logs into a hashing sink, manifest sweeps, and a
// Monte Carlo fork. Its work is a batch pass, one pass of each phase, so
// work_per_s is one over the sum of the phases' mean scaled pass times. Each
// phase's own rate, its work per pass over its median pass time, goes to
// the summary's notes.
func (b *bench) batch() error {
	var rss int64
	var err error
	// phase repeats one phase's pass for its share of the budget and
	// returns the median unscaled and the mean scaled pass time. The
	// logs phase fits only three or four passes, and the mean of those
	// uses every pass where their median uses one.
	phase := func(name string, share float64, pass func(i int) (time.Duration, int64)) (float64, float64) {
		var ds, scaled []float64
		end := b.deadline(share)
		for i := 0; ; i++ {
			if err == nil {
				err = b.processStarts()
			}
			k := b.passSpeed()
			d, r := pass(i)
			ds = append(ds, d.Seconds())
			scaled = append(scaled, d.Seconds()*k)
			rss = max(rss, r)
			if time.Now().Add(time.Duration(median(ds) * float64(time.Second))).After(end) {
				b.notes[name+" passes"] = len(ds)
				return median(ds), mean(scaled)
			}
		}
	}
	var records, lines int64
	logs, logsK := phase("logs", 0.55, func(i int) (time.Duration, int64) {
		d, n, _, r := b.logsPass(i, 0, nil)
		records = n
		return d, r
	})
	mans, mansK := phase("manifests", 0.2, func(i int) (time.Duration, int64) {
		d, n, r := b.manifestsPass(i, 0, nil)
		lines = n
		return d, r
	})
	forks, forksK := phase("mc", 0.25, func(i int) (time.Duration, int64) { return b.mcPass(i, 0, nil) })
	if err != nil {
		return err
	}
	b.calibrate()
	b.metrics["setup_s"] = median(b.starts) * b.speed()
	b.metrics["work_per_s"] = 1 / (logsK + mansK + forksK)
	b.metrics["max_rss_mb"] = float64(rss) / 1024
	b.notes["phases"] = map[string]float64{
		"records_per_s": float64(records) / logsK, "lines_per_s": float64(lines) / mansK,
		"forks_per_s": batchForks / forksK,
	}
	b.notes["unscaled"] = map[string]float64{
		"work_per_s": 1 / (logs + mans + forks), "setup_s": median(b.starts),
		"records_per_s": float64(records) / logs, "lines_per_s": float64(lines) / mans,
		"forks_per_s": batchForks / forks,
	}
	return nil
}

// logsPass writes the full-window telemetry log of each batch
// experiment into a hashing sink and checks digest and record count.
func (b *bench) logsPass(i int, parent int64, prof profArgs) (time.Duration, int64, int64, int64) {
	span := b.tr.begin("logs", layerBench, parent, "")
	defer b.tr.end(span)
	var total time.Duration
	var records, nbytes, rss int64
	for _, exp := range batchLogs {
		args := append([]string{"-exp", exp, "-telemetry", "-", "-until", "0"}, prof.args("log-"+exp)...)
		sink := newHashSink()
		r := b.cli("dvsim", span, sink, args...)
		want := b.ref.Logs[exp]
		status := opOK
		switch {
		case r.err != nil:
			b.mismatch("telemetry log %s: %v: %s", exp, r.err, trimErr(r.stderr))
			status = opWrong
		case sink.sum() != want.SHA256 || sink.lines != want.Records || sink.bytes != want.Bytes:
			b.mismatch("telemetry log %s: %d records, %d bytes, sha256 %.12s; reference %d, %d, %.12s",
				exp, sink.lines, sink.bytes, sink.sum(), want.Records, want.Bytes, want.SHA256)
			status = opWrong
		}
		b.done("logs", "dvsim -exp "+exp+" -telemetry - -until 0", i, r.start, r.dur, float64(sink.lines)/r.dur.Seconds(), "1/s", status)
		total += r.dur
		records += sink.lines
		nbytes += sink.bytes
		rss = max(rss, r.rssKB)
	}
	return total, records, nbytes, rss
}

// manifestsPass runs each committed fleet manifest at two workers and
// checks its aggregated CSV.
func (b *bench) manifestsPass(i int, parent int64, prof profArgs) (time.Duration, int64, int64) {
	span := b.tr.begin("manifests", layerBench, parent, "")
	defer b.tr.end(span)
	var total time.Duration
	var lines, rss int64
	for _, m := range batchManifests {
		args := append([]string{"-manifest", manifestPath(m), "-j", batchWorkers}, prof.args("manifest-"+m)...)
		r := b.cli("dvsim", span, nil, args...)
		want := b.ref.Manifests[m]
		n := int64(bytes.Count(r.stdout, []byte{'\n'})) - 1
		status := opOK
		switch {
		case r.err != nil:
			b.mismatch("manifest %s: %v: %s", m, r.err, trimErr(r.stderr))
			status = opWrong
		case sha256Hex(r.stdout) != want.SHA256 || n != want.Lines:
			b.mismatch("manifest %s: %d line(s), sha256 %.12s; reference %d, %.12s", m, n, sha256Hex(r.stdout), want.Lines, want.SHA256)
			status = opWrong
		}
		b.done("manifests", "dvsim -manifest "+m+" -j "+batchWorkers, i, r.start, r.dur, float64(n)/r.dur.Seconds(), "1/s", status)
		total += r.dur
		lines += n
		rss = max(rss, r.rssKB)
	}
	return total, lines, rss
}

// mcPass runs the 16-fork exp 2D Monte Carlo and checks its digest table.
func (b *bench) mcPass(i int, parent int64, prof profArgs) (time.Duration, int64) {
	args := append([]string{"-exp", "2D", "-mc", fmt.Sprint(batchForks), "-j", batchWorkers}, prof.args("mc")...)
	r := b.cli("dvsim", parent, nil, args...)
	status := opOK
	switch {
	case r.err != nil:
		b.mismatch("monte carlo: %v: %s", r.err, trimErr(r.stderr))
		status = opWrong
	case sha256Hex(r.stdout) != b.ref.MonteCarlo:
		b.mismatch("monte carlo: digest table sha256 %.12s, reference %.12s", sha256Hex(r.stdout), b.ref.MonteCarlo)
		status = opWrong
	}
	b.done("mc", fmt.Sprintf("dvsim -exp 2D -mc %d -j %s", batchForks, batchWorkers), i, r.start, r.dur, batchForks/r.dur.Seconds(), "1/s", status)
	return r.dur, r.rssKB
}
