// Command dvsim runs the paper's experiment suite on the simulated Itsy
// platform and prints the outcomes against the published numbers.
//
// Usage:
//
//	dvsim [-exp 2C] [-rotation N] [-battery twowell|ideal|peukert|kibam]   # -rotation: 2C only
//	dvsim -exp 2C -telemetry out.jsonl [-until SECONDS] [-assert spec.json]
//	dvsim -metrics[=FILE] [-exp 2B]   # instrumented run, metrics snapshot as CSV
//	dvsim -ports[=FILE]               # per-port serial accounting as CSV
//	dvsim -exp 2D -faults scenario.json   # fault injection (see scenarios/)
//	dvsim -exp 2 -governor pid            # online DVS instead of the static table (not 0A/0B)
//	dvsim -exp 3A [-frames N]             # governor study: all four policies head to head
//	dvsim -exp 1 -assert spec.json        # check an assertion catalog online during the run
//	dvsim -check log.jsonl -assert spec.json   # replay a recorded telemetry log offline
//	dvsim -manifest sweep.toml [-j N] [-agg-jsonl FILE]   # run a declarative sweep (see MANIFESTS.md)
//	dvsim -exp 2D -mc 1000 [-mc-warm 60] [-until 3600]    # Monte Carlo: seeded futures diverging at the warm point
//
// A platform flag that no experiment of the invocation reads exits 2
// with core's message, as the same setting does in a runfile line or a
// dvsimd envelope (with -remote the server refuses it: HTTP 400, exit
// 2): only 2C reads -rotation, and 0A/0B, which have no I/O, read only
// -assert. Over the whole suite (no -exp) a flag is refused only if no
// experiment reads it, and each run applies what it reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dvsim/internal/assert"
	"dvsim/internal/battery"
	"dvsim/internal/bench"
	"dvsim/internal/buildinfo"
	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/manifest"
	"dvsim/internal/report"
	"dvsim/internal/service"
)

// outFlag is an optional-value output flag: bare "-metrics" keeps the
// historical stdout behaviour, "-metrics=FILE" writes FILE instead.
type outFlag struct {
	on   bool
	path string
}

func (o *outFlag) String() string   { return o.path }
func (o *outFlag) IsBoolFlag() bool { return true }
func (o *outFlag) Set(v string) error {
	switch v {
	case "true":
		o.on, o.path = true, ""
	case "false":
		o.on, o.path = false, ""
	default:
		o.on, o.path = true, v
	}
	return nil
}

// mustCreate opens an output file for writing, aborting with the
// responsible flag's name on failure. Every output path is resolved
// before the simulation starts, so a mistyped destination costs
// nothing but the error message.
func mustCreate(flagName, path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvsim: -%s: %v\n", flagName, err)
		os.Exit(2)
	}
	return f
}

// writer resolves the flag's destination: stdout for the bare form,
// the named file otherwise.
func (o *outFlag) writer(flagName string) (io.Writer, func()) {
	if o.path == "" {
		return os.Stdout, func() {}
	}
	f := mustCreate(flagName, o.path)
	return f, func() { f.Close() }
}

// finishAssertions renders each checked outcome's verdict to w, writes
// the violations CSV when -violations asked for one, and exits non-zero
// when any invariant failed. Unchecked runs (no catalog, or a no-I/O
// experiment the catalog cannot observe) pass through silently.
func finishAssertions(w io.Writer, spec *assert.Spec, outs []core.Outcome, violW *os.File, stopProf func()) {
	if violW != nil {
		var all []assert.Violation
		for _, o := range outs {
			all = append(all, o.Violations...)
		}
		io.WriteString(violW, report.ViolationsCSV(all))
		violW.Close()
	}
	if spec == nil {
		return
	}
	code := 0
	for _, o := range outs {
		if o.AssertionsRun == 0 {
			continue
		}
		name := spec.Name
		if len(outs) > 1 {
			tag := string(o.ID)
			if o.Governor != "" {
				tag += ":" + o.Governor
			}
			name = fmt.Sprintf("%s [exp %s]", name, tag)
		}
		io.WriteString(w, report.ViolationsTable(name, o.AssertionsRun, o.ViolationTotal, o.Violations))
		if o.ViolationTotal > 0 {
			code = 1
		}
	}
	if code != 0 {
		stopProf()
		os.Exit(code)
	}
}

// Flag groups the modes below share: every mode that simulates
// locally reads the platform flags, and every local mode the profiling
// flags.
var (
	platformFlags = []string{"params", "rotation", "battery", "governor", "faults", "assert"}
	profileFlags  = []string{"cpuprofile", "memprofile", "trace"}
)

// local lists the flags of a mode that runs in this process.
func local(flags ...string) []string {
	return append(flags, profileFlags...)
}

// simulating lists the flags of a mode that simulates locally.
func simulating(flags ...string) []string {
	return local(append(flags, platformFlags...)...)
}

// modeFlags lists every flag each mode reads, the flags that select it
// included. main picks one mode per invocation, in the order it
// dispatches: -version and -dumpparams only print, -manifest runs a
// self-contained sweep (its runfile owns platform, governor, faults and
// assertions), -check replays a recorded log with no simulation, and
// -remote ships the run to a server that sees no local profile or
// report destination. The suite's outputs (-ports, -csv, -compare, the
// table) exclude each other. The study 3A sets each run's governor
// itself. Which platform flags an experiment reads is core's to say:
// main refuses one that none of the experiments it runs reads.
var modeFlags = map[string][]string{
	"-version":          {"version"},
	"-dumpparams":       local("dumpparams"),
	"-remote":           {"remote", "exp", "until", "telemetry", "params", "rotation", "governor", "faults", "assert"},
	"-remote -manifest": {"remote", "manifest", "agg-csv"},
	"-manifest":         local("manifest", "j", "agg-csv", "agg-jsonl"),
	"-check":            local("check", "assert", "violations", "csv"),
	"-mc":               simulating("mc", "mc-warm", "mc-seed", "exp", "until", "j"),
	"-telemetry":        simulating("telemetry", "exp", "until"),
	"-plan":             simulating("plan", "j"),
	"-exp 3A":           local("exp", "frames", "j", "csv", "violations", "params", "rotation", "battery", "faults", "assert"),
	"-metrics":          simulating("metrics", "exp", "violations"),
	"-ports":            simulating("ports", "exp", "j", "violations"),
	"-csv":              simulating("csv", "exp", "j", "violations"),
	"-compare":          simulating("compare", "exp", "j", "violations"),
	"the suite table":   simulating("exp", "j", "violations"),
}

// rejectUnreadFlags fails fast (exit 2) on an explicitly set flag the
// mode does not read, before any output file is created or any
// simulation starts, so no flag is silently ignored.
func rejectUnreadFlags(mode string) {
	reads := make(map[string]bool)
	for _, name := range modeFlags[mode] {
		reads[name] = true
	}
	flag.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			fmt.Fprintf(os.Stderr, "dvsim: -%s does not apply to %s\n", f.Name, mode)
			os.Exit(2)
		}
	})
}

// remoteRun is a dvsim invocation shipped to a dvsimd server.
type remoteRun struct {
	base       string
	exp        string
	untilS     float64
	manifest   string
	aggCSV     string
	rotation   int
	governor   string
	faults     *fault.Scenario
	assertSpec *assert.Spec
	platform   *core.PlatformConfig
	telemetryW io.Writer
	close      func()
}

// runRemote builds a Submission from the local flags — scenario files
// and platform configs are loaded here and inlined, so the server
// needs no access to the client's filesystem — and streams the
// artifact as the server produces it. Identical submissions replay
// from the server's cache; the stderr summary says which happened.
func runRemote(r remoteRun) {
	sub := service.Submission{
		Experiment: r.exp,
		UntilS:     r.untilS,
		Rotation:   r.rotation,
		Governor:   r.governor,
	}
	out := r.telemetryW
	done := r.close
	switch {
	case r.manifest != "":
		text, err := os.ReadFile(r.manifest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -manifest: %v\n", err)
			os.Exit(2)
		}
		sub.Manifest = string(text)
		if r.aggCSV != "" {
			f := mustCreate("agg-csv", r.aggCSV)
			out, done = f, func() { f.Close() }
		} else {
			out, done = os.Stdout, func() {}
		}
	case r.exp != "":
		if out == nil {
			out, done = os.Stdout, func() {}
		}
	default:
		fmt.Fprintln(os.Stderr, "dvsim: -remote needs -exp or -manifest to know what to submit")
		os.Exit(2)
	}
	if r.faults != nil {
		b, err := json.Marshal(r.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sub.Faults = b
	}
	if r.assertSpec != nil {
		b, err := json.Marshal(r.assertSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sub.Assert = b
	}
	sub.Platform = r.platform

	client := &service.Client{Base: r.base}
	info, err := client.Submit(context.Background(), sub, out)
	done()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvsim: -remote: %v\n", err)
		// A submission the server refuses is a bad spec, as it would be
		// locally.
		var refused *service.StatusError
		if errors.As(err, &refused) && refused.Code/100 == 4 {
			os.Exit(2)
		}
		os.Exit(1)
	}
	what := "exp " + r.exp
	if sub.Manifest != "" {
		what = "manifest " + r.manifest
	}
	fmt.Fprintf(os.Stderr, "remote %s: cache %s, %d byte(s) (key %s)\n",
		what, info.Cache, info.Bytes, info.Key)
}

// exitOnRunError reports a failed run on one line and exits: 2 for a
// spec the simulator rejects (an unknown experiment, 3A without a
// governor, …), 1 for a failure while running or writing.
func exitOnRunError(flagName string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "dvsim: %s: %v\n", flagName, err)
	if errors.Is(err, core.ErrBadSpec) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	expFlag := flag.String("exp", "", "single experiment to run (0A, 0B, 1, 1A, 2, 2A, 2B, 2C, 2D)")
	rotation := flag.Int("rotation", 0, "override the node-rotation period (frames); only experiment 2C reads it")
	batFlag := flag.String("battery", "twowell", "battery model: twowell, ideal, peukert, kibam")
	compare := flag.Bool("compare", false, "print the paper-vs-model comparison table")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of the table")
	workers := flag.Int("j", 0, "parallel experiment workers (0 = GOMAXPROCS)")
	plan := flag.Float64("plan", 0, "plan the cheapest configuration reaching this battery life (hours)")
	telemetry := flag.String("telemetry", "", "with -exp: write the run's JSONL event log (every event kind, DESIGN.md §6) to FILE ('-' for stdout); with -assert, the verdict goes to stderr and a violation exits 1")
	until := flag.Float64("until", 0, "simulated window in seconds for -telemetry (0 = 30 h, past every battery death)")
	var metricsOut, portsOut outFlag
	flag.Var(&metricsOut, "metrics", "run instrumented and write each experiment's metrics snapshot as CSV (bare = stdout, -metrics=FILE writes FILE)")
	flag.Var(&portsOut, "ports", "write per-port serial accounting as CSV (bare = stdout, -ports=FILE writes FILE)")
	faultsFile := flag.String("faults", "", "load a JSON fault scenario (link drop/garble, node crashes, battery variance) and inject it into the run")
	governorFlag := flag.String("governor", "", "online DVS policy NAME[:key=value,...] applied to every pipeline node (static, interval, pid, buffer); e.g. pid:kp=0.5,ki=0.1. 0A/0B have no pipeline and refuse it")
	framesFlag := flag.Int("frames", 0, "with -exp 3A: bound each governor run to N frames (0 = battery exhaustion)")
	assertFile := flag.String("assert", "", "load a JSON assertion spec (see scenarios/assertions/) and check it against the run's telemetry stream; with -check, against a recorded log")
	checkFile := flag.String("check", "", "replay a recorded telemetry JSONL FILE through the -assert spec and report the verdict (offline; no simulation)")
	violationsFile := flag.String("violations", "", "write assertion violations as CSV to FILE (header-only when every invariant holds)")
	mcForks := flag.Int("mc", 0, "with -exp: Monte Carlo — run N futures whose fault stream is reseeded at the warm point (in parallel, see -j) and print one digest row per run")
	mcWarm := flag.Float64("mc-warm", 0, "with -mc: warm point in simulated seconds, quantized to a frame boundary (0 = a quarter of the horizon)")
	mcSeed := flag.Uint64("mc-seed", 1, "with -mc: first fork seed; forks use seeds BASE..BASE+N-1")
	manifestFile := flag.String("manifest", "", "run a declarative experiment manifest (see MANIFESTS.md and scenarios/manifests/): expand every line into a sweep, run it all-core, aggregate one row per run")
	aggCSV := flag.String("agg-csv", "", "with -manifest: write the aggregated CSV to FILE instead of stdout")
	aggJSONL := flag.String("agg-jsonl", "", "with -manifest: also write the aggregated sweep as JSON Lines to FILE")
	paramsFile := flag.String("params", "", "load a JSON platform config instead of the calibrated Itsy defaults")
	dump := flag.Bool("dumpparams", false, "write the default platform config as JSON and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile to FILE at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to FILE")
	remote := flag.String("remote", "", "submit the run to a dvsimd server at URL instead of simulating locally (with -exp or -manifest); identical submissions replay from the server's content-addressed cache")
	version := flag.Bool("version", false, "print the engine/build version and exit")
	flag.Parse()

	mode := "the suite table"
	switch {
	case *version:
		mode = "-version"
	case *dump:
		mode = "-dumpparams"
	case *remote != "" && *manifestFile != "":
		mode = "-remote -manifest"
	case *remote != "":
		mode = "-remote"
	case *manifestFile != "":
		mode = "-manifest"
	case *checkFile != "":
		mode = "-check"
	case *mcForks > 0:
		mode = "-mc"
	case *telemetry != "":
		mode = "-telemetry"
	case *plan > 0:
		mode = "-plan"
	case core.ID(*expFlag) == core.Exp3A:
		mode = "-exp 3A"
	case metricsOut.on:
		mode = "-metrics"
	case portsOut.on:
		mode = "-ports"
	case *csvOut:
		mode = "-csv"
	case *compare:
		mode = "-compare"
	}
	rejectUnreadFlags(mode)
	if mode == "-version" {
		fmt.Println(buildinfo.Version())
		return
	}
	// The single-run modes default their subject: 2D for Monte Carlo
	// over fault seeds, which needs a fault load to diverge under and 2D
	// carries the built-in one; 1 for the log.
	if *expFlag == "" {
		switch mode {
		case "-mc":
			*expFlag = string(core.Exp2D)
		case "-telemetry":
			*expFlag = string(core.Exp1)
		}
	}
	ids := core.AllExperiments
	if *expFlag != "" {
		ids = []core.ID{core.ID(*expFlag)}
	}

	// Resolve every spec and output destination up front: a bad spec or
	// path must abort here, naming its flag, not after the simulation
	// has spent its budget, and a bad spec before any file is created.
	var spec *assert.Spec
	if *assertFile != "" {
		s, err := assert.LoadFile(*assertFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -assert: %v\n", err)
			os.Exit(2)
		}
		spec = s
	}
	var platform *core.PlatformConfig
	if *paramsFile != "" {
		f, err := os.Open(*paramsFile)
		if err == nil {
			var pc core.PlatformConfig
			pc, err = core.LoadPlatformConfig(f)
			f.Close()
			platform = &pc
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -params: %v\n", err)
			os.Exit(2)
		}
	}
	var faults *fault.Scenario
	if *faultsFile != "" {
		sc, err := fault.LoadFile(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -faults: %v\n", err)
			os.Exit(2)
		}
		faults = sc
	}
	set := manifest.Settings{Rotation: *rotation, Governor: *governorFlag, Faults: faults, Assert: spec}
	switch mode {
	case "-dumpparams", "-remote", "-remote -manifest", "-manifest", "-check", "-plan":
		// No paper experiment runs here: the server and the runfile
		// check their own settings, and -plan's custom pipelines read
		// every one.
	default:
		if err := set.Check(ids...); err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: %v\n", err)
			os.Exit(2)
		}
	}

	var telemetryW io.Writer
	telemetryClose := func() {}
	if *telemetry != "" {
		telemetryW = os.Stdout
		if *telemetry != "-" {
			f := mustCreate("telemetry", *telemetry)
			telemetryW, telemetryClose = f, func() { f.Close() }
		}
	}
	var metricsW, portsW io.Writer
	metricsDone, portsDone := func() {}, func() {}
	if metricsOut.on {
		metricsW, metricsDone = metricsOut.writer("metrics")
	}
	if portsOut.on {
		portsW, portsDone = portsOut.writer("ports")
	}
	var violW *os.File
	if *violationsFile != "" {
		violW = mustCreate("violations", *violationsFile)
	}

	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if mode == "-dumpparams" {
		if err := core.SavePlatform(os.Stdout, core.DefaultPlatformConfig()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if mode == "-remote" || mode == "-remote -manifest" {
		runRemote(remoteRun{
			base:       *remote,
			exp:        *expFlag,
			untilS:     *until,
			manifest:   *manifestFile,
			aggCSV:     *aggCSV,
			rotation:   *rotation,
			governor:   *governorFlag,
			faults:     faults,
			assertSpec: spec,
			platform:   platform,
			telemetryW: telemetryW,
			close:      telemetryClose,
		})
		return
	}

	if mode == "-manifest" {
		m, err := manifest.LoadFile(*manifestFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -manifest: %v\n", err)
			os.Exit(2)
		}
		exps, err := m.Expand()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -manifest: %s: %v\n", *manifestFile, err)
			os.Exit(2)
		}
		nodes := 0
		for _, e := range exps {
			nodes += e.Nodes
		}
		fmt.Fprintf(os.Stderr, "%s: %d experiment(s) over %d simulated node(s)\n", *manifestFile, len(exps), nodes)
		results := manifest.RunAll(exps, *workers)
		table := manifest.CSV(results)
		if *aggCSV != "" {
			f := mustCreate("agg-csv", *aggCSV)
			io.WriteString(f, table)
			f.Close()
		} else {
			fmt.Print(table)
		}
		if *aggJSONL != "" {
			f := mustCreate("agg-jsonl", *aggJSONL)
			err := manifest.WriteJSONL(f, results)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvsim: -agg-jsonl: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if mode == "-check" {
		if spec == nil {
			fmt.Fprintln(os.Stderr, "dvsim: -check needs -assert SPEC to know what to verify")
			os.Exit(2)
		}
		eng := assert.MustNew(spec)
		n, err := assert.ReplayFile(*checkFile, eng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -check: %v\n", err)
			os.Exit(1)
		}
		vs := eng.Violations()
		if violW != nil {
			io.WriteString(violW, report.ViolationsCSV(vs))
			violW.Close()
		}
		fmt.Fprintf(os.Stderr, "%s: %d record(s) replayed against %s\n", *checkFile, n, *assertFile)
		if *csvOut {
			fmt.Print(report.ViolationsCSV(vs))
		} else {
			fmt.Print(report.ViolationsTable(eng.Name(), eng.Evaluated(), eng.Total(), vs))
		}
		if eng.Total() > 0 {
			stopProf()
			os.Exit(1)
		}
		return
	}

	p := core.DefaultParams()
	if platform != nil {
		p, err = platform.Params()
	}
	if err == nil {
		p, err = set.Apply(p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvsim: %v\n", err)
		os.Exit(2)
	}
	switch *batFlag {
	case "twowell":
		// Default.
	case "ideal":
		cap := core.DefaultItsyBatteryParams().CapacityMAh
		p.Battery = func() battery.Model { return battery.NewIdeal(cap) }
	case "peukert":
		cap := core.DefaultItsyBatteryParams().CapacityMAh
		p.Battery = func() battery.Model { return battery.NewPeukert(cap, 65, 1.2) }
	case "kibam":
		cap := core.DefaultItsyBatteryParams().CapacityMAh
		p.Battery = func() battery.Model { return battery.NewKiBaM(cap, 0.1, 1e-3) }
	default:
		fmt.Fprintf(os.Stderr, "unknown battery model %q\n", *batFlag)
		os.Exit(2)
	}

	if mode == "-mc" {
		id := core.ID(*expFlag)
		horizon := *until
		if horizon <= 0 {
			horizon = 3600
		}
		warm := *mcWarm
		if warm <= 0 {
			warm = horizon / 4
		}
		seeds := make([]uint64, *mcForks)
		for i := range seeds {
			seeds[i] = *mcSeed + uint64(i)
		}
		warmAt, res, err := core.MonteCarlo(core.Spec{ID: id, Params: p, UntilS: horizon}, warm, seeds, *workers)
		exitOnRunError("-mc", err)
		distinct := make(map[uint64]bool)
		failures := 0
		fmt.Println("seed,records,digest")
		for _, r := range res {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "dvsim: -mc: seed %d: %v\n", r.Seed, r.Err)
				failures++
				continue
			}
			fmt.Printf("%d,%d,%016x\n", r.Seed, r.Records, r.Sum64)
			distinct[r.Sum64] = true
		}
		fmt.Fprintf(os.Stderr, "exp %s: %d fork(s) from warm point %g s, horizon %g s: %d distinct future(s)\n",
			id, len(res), warmAt, horizon, len(distinct))
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	if mode == "-telemetry" {
		id := core.ID(*expFlag)
		window := *until
		if window <= 0 {
			window = core.DefaultTelemetryWindowS
		}
		run := core.Spec{ID: id, Params: p, UntilS: window}
		out, err := core.Simulate(context.Background(), run, core.Sinks{Log: telemetryW})
		telemetryClose()
		exitOnRunError("-telemetry", err)
		fmt.Fprintf(os.Stderr, "exp %s: %d telemetry records (%.0f s window)\n", id, out.Records, window)
		// The log may be on stdout, so the verdict goes to stderr.
		finishAssertions(os.Stderr, spec, []core.Outcome{out}, nil, stopProf)
		return
	}
	if mode == "-plan" {
		c, err := core.PlanForLifetime(p, *plan, 4, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Printf("target %.1f h -> %s: %d node(s), %.2f h, %d frames\n",
			*plan, c.Name, c.Nodes(), c.Outcome.BatteryLifeH, c.Outcome.Frames)
		for i, s := range c.Stages {
			fmt.Printf("  node%d: %-40v compute %.1f MHz, comm %.1f MHz\n",
				i+1, s.Span, s.Compute.FreqMHz, s.Comm.FreqMHz)
		}
		if c.RotationPeriod > 1 {
			fmt.Printf("  node rotation every %d frames\n", c.RotationPeriod)
		}
		return
	}

	if mode == "-exp 3A" {
		outs, err := core.RunGovernorStudy(p, *workers, *framesFlag)
		exitOnRunError("-exp 3A", err)
		if *csvOut {
			fmt.Print(report.GovernorCSV(outs))
		} else {
			fmt.Println(report.GovernorTable(outs))
		}
		finishAssertions(os.Stdout, spec, outs, violW, stopProf)
		return
	}

	if mode == "-metrics" {
		outs := make([]core.Outcome, 0, len(ids))
		for _, id := range ids {
			out, err := core.Simulate(context.Background(), core.Spec{ID: id, Params: p}, core.Sinks{Metrics: true})
			exitOnRunError("-metrics", err)
			fmt.Fprintf(metricsW, "# exp %s\n%s", out.ID, report.MetricsCSV(out.Metrics))
			outs = append(outs, out)
		}
		metricsDone()
		finishAssertions(os.Stdout, spec, outs, violW, stopProf)
		return
	}
	outs, err := core.RunSuite(ids, p, *workers)
	exitOnRunError("-exp", err)

	switch mode {
	case "-ports":
		fmt.Fprint(portsW, report.PortsCSV(outs))
		portsDone()
	case "-csv":
		fmt.Print(report.CSV(outs))
	case "-compare":
		fmt.Println(report.Compare(outs))
	default:
		fmt.Printf("%-4s %-44s %6s %9s %9s %9s %7s %8s %8s\n",
			"exp", "technique", "nodes", "T (h)", "paper(h)", "F", "paperF", "Tnorm", "Rnorm")
		for _, o := range outs {
			fmt.Printf("%-4s %-44s %6d %9.2f %9.2f %9d %7d %8.2f %7.0f%%\n",
				o.ID, o.Label, o.Nodes, o.BatteryLifeH, core.PaperHours(o.ID),
				o.Frames, core.PaperFrames(o.ID), o.TnormH, o.Rnorm*100)
			if fs := o.FaultStats; fs.Total() > 0 {
				fmt.Printf("     · faults injected: %d drops, %d garbles, %d crashes, %d restarts\n",
					fs.Drops, fs.Garbles, fs.Crashes, fs.Restarts)
			}
			for _, ns := range o.NodeStats {
				extra := ""
				if ns.Crashes > 0 || ns.FramesAbandoned > 0 {
					extra = fmt.Sprintf("  crash %d/%d  abandoned %d", ns.Crashes, ns.Restarts, ns.FramesAbandoned)
				}
				fmt.Printf("     · %-8s died %6.2fh  proc %6d  results %6d  rot %4d  mig %d  %6.1f mAh  SoC %4.0f%%  (idle %.0fs comm %.0fs compute %.0fs)%s\n",
					ns.Name, ns.DiedAtH, ns.FramesProcessed, ns.ResultsSent, ns.Rotations,
					ns.Migrations, ns.DeliveredMAh, ns.FinalSoC*100, ns.IdleS, ns.CommS, ns.ComputeS, extra)
			}
		}
	}
	finishAssertions(os.Stdout, spec, outs, violW, stopProf)
}
