// Command perfbench is dvsim's benchmark. It runs one workload against
// the dvsim CLI or the dvsimd HTTP API, checks every output against
// reference outputs, and prints the workload's metrics by name with
// their units. See README.md for the workloads, the metrics and how to
// run it; run.py builds the binaries and invokes it.
//
//	perfbench -workload suite|batch|serve -seed N -seconds S -trace 0|1
//	perfbench compare OLD.json NEW.json
//	perfbench reference
//	perfbench echo
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "reference":
			os.Exit(referenceMain(os.Args[2:]))
		case "echo":
			os.Exit(echoMain())
		}
	}
	workload := flag.String("workload", "", "workload to run: suite, batch or serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profiles instead of end-to-end metrics")
	root := flag.String("root", ".", "repository checkout to benchmark")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the dvsim, dvsimd and probe binaries")
	out := flag.String("out", "", "directory for raw rows, spans, profiles and the summary (default .bench_build/perfbench/WORKLOAD-sSEED-tTRACE)")
	flag.Parse()

	if *workload != "suite" && *workload != "batch" && *workload != "serve" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want suite, batch or serve)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-s%d-t%d", *workload, *seed, *trace))
	}
	b, err := newBench(*root, *bin, *out, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Summary is written beside the raw rows: the result plus the machine
// context it was measured in and per-workload details.
type Summary struct {
	Context  Context        `json:"context"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Result   Result         `json:"result"`
	Notes    map[string]any `json:"notes,omitempty"`
}

// bench is one invocation: a workload, its seed and time budget.
type bench struct {
	root, bin, out string
	workload       string
	seed           uint64
	seconds        float64
	trace          bool
	ref            *reference
	ctx            Context

	// tr records spans during the traced pass of a traced run; nil
	// otherwise, so timed runs pay nothing for tracing.
	tr   *tracer
	rows *rowWriter

	attempted, failed, wrong int
	starts                   []float64 // CLI set-up samples, seconds
	cals                     []float64 // calibration times, seconds
	echoCals                 []float64 // serve's echo calibration chunk times, seconds
	metrics                  map[string]float64
	notes                    map[string]any
}

func newBench(root, bin, out, workload string, seed uint64, seconds float64, trace bool) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	for _, name := range []string{"dvsim", "dvsimd"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	ref, err := loadReference(filepath.Join(root, "perfbench", "testdata", "reference.json"))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	rows, err := newRowWriter(filepath.Join(out, "rows.csv"), workload, seed, trace)
	if err != nil {
		return nil, err
	}
	return &bench{
		root: root, bin: bin, out: out, workload: workload, seed: seed,
		seconds: seconds, trace: trace, ref: ref, rows: rows,
		ctx:     currentContext(root),
		metrics: make(map[string]float64),
		notes:   make(map[string]any),
	}, nil
}

func (b *bench) run() (Result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %.0f s, trace %v on %s\n", b.workload, b.seed, b.seconds, b.trace, b.ctx)
	var err error
	switch {
	case b.trace:
		err = b.traced()
	case b.workload == "suite":
		err = b.suite()
	case b.workload == "batch":
		err = b.batch()
	case b.workload == "serve":
		err = b.serve()
	}
	if cerr := b.rows.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Correct:   b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]Metric),
	}
	if b.trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = Metric{b.metrics[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := b.metrics[d.Name]
			if !ok {
				return Result{}, fmt.Errorf("workload %s did not measure %s", b.workload, d.Name)
			}
			res.Metrics[d.Name] = Metric{v, d.Unit}
		}
	}
	if res.Attempted == 0 {
		return Result{}, fmt.Errorf("no operation completed within %.0f s", b.seconds)
	}
	if len(b.cals) > 0 {
		b.notes["calibration_s"] = fmt.Sprintf("median %.4f, min %.4f, max %.4f over %d (reference %.4f)",
			median(b.cals), percentile(b.cals, 0), percentile(b.cals, 100), len(b.cals), calRef.Seconds())
	}
	b.report(res)
	sum := Summary{Context: b.ctx, Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.trace, Result: res, Notes: b.notes}
	if err := writeJSON(filepath.Join(b.out, "summary.json"), sum); err != nil {
		return Result{}, err
	}
	return res, nil
}

// report prints a human-readable summary to standard error.
func (b *bench) report(res Result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(b.notes))
	for k := range b.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  note %s: %v\n", k, b.notes[k])
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operation(s), %d failed, outputs correct: %v; rows in %s\n",
		res.Attempted, res.Failed, res.Correct, b.out)
}

// Operation outcomes. A wrong output (bytes, digest or a non-2xx
// response) also makes the run incorrect; a failed one, such as a
// request over the latency limit, only counts as failed.
const (
	opOK = iota
	opFailed
	opWrong
)

// done accounts one timed operation and writes its raw row.
func (b *bench) done(phase, op string, i int, start time.Time, dur time.Duration, value float64, unit string, status int) {
	b.attempted++
	if status != opOK {
		b.failed++
	}
	if status == opWrong {
		b.wrong++
	}
	b.rows.write(phase, op, i, start, dur, value, unit, status)
}

// mismatch reports a wrong output on standard error.
func (b *bench) mismatch(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: WRONG OUTPUT: "+format+"\n", args...)
}

// deadline is when the measurement budget, started now, runs out.
func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.seconds * float64(time.Second)))
}

func (b *bench) path(rel string) string { return filepath.Join(b.root, filepath.FromSlash(rel)) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func trimErr(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 300 {
		s = s[len(s)-300:]
	}
	return s
}
