package main

import (
	"bytes"
	"os"
	"time"
)

// suite runs every paper experiment to battery exhaustion on one worker
// (dvsim -compare -j 1) for as many passes as fit the time budget. Its
// rate is over the mean scaled pass time, as batch's is.
func (b *bench) suite() error {
	golden, err := b.compareGolden()
	if err != nil {
		return err
	}
	var passes, scaled []float64
	var rss int64
	end := b.deadline(1)
	for i := 0; ; i++ {
		if err := b.processStarts(); err != nil {
			return err
		}
		k := b.passSpeed()
		r := b.suitePass(i, golden, 0, nil)
		passes = append(passes, r.dur.Seconds())
		scaled = append(scaled, r.dur.Seconds()*k)
		rss = max(rss, r.rssKB)
		if time.Now().Add(time.Duration(median(passes) * float64(time.Second))).After(end) {
			break
		}
	}
	b.calibrate()
	b.metrics["work_per_s"] = b.ref.SuiteWallH / mean(scaled)
	b.metrics["max_rss_mb"] = float64(rss) / 1024
	b.metrics["setup_s"] = median(b.starts) * b.speed()
	b.notes["passes"] = len(passes)
	b.notes["unscaled"] = map[string]float64{"work_per_s": b.ref.SuiteWallH / median(passes), "setup_s": median(b.starts)}
	return nil
}

// compareGolden is the expected -compare output: the committed table
// plus the blank line the CLI prints after it.
func (b *bench) compareGolden() ([]byte, error) {
	g, err := os.ReadFile(b.path("internal/report/testdata/compare.golden"))
	if err != nil {
		return nil, err
	}
	return append(g, '\n'), nil
}

// suitePass runs one dvsim -compare -j 1 and checks its table.
func (b *bench) suitePass(i int, golden []byte, parent int64, prof profArgs) cliRun {
	r := b.cli("dvsim", parent, nil, append([]string{"-compare", "-j", "1"}, prof.args("suite")...)...)
	status := opOK
	switch {
	case r.err != nil:
		b.mismatch("suite pass %d: %v: %s", i, r.err, trimErr(r.stderr))
		status = opWrong
	case !bytes.Equal(r.stdout, golden):
		b.mismatch("suite pass %d: -compare table differs from internal/report/testdata/compare.golden", i)
		status = opWrong
	}
	b.done("suite", "dvsim -compare -j 1", i, r.start, r.dur, b.ref.SuiteWallH/r.dur.Seconds(), "h/s", status)
	return r
}
