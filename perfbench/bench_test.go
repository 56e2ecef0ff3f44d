package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestServeInputsFollowSeed(t *testing.T) {
	rungs := ladder(30)
	items := hitSet("")
	cost := identityOrder(missCatalogue)
	a, err := genServe(7, rungs, items, cost)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genServe(7, rungs, items, cost)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave different serve inputs on two calls")
	}
	c, _ := genServe(8, rungs, items, cost)
	if reflect.DeepEqual(a.hits, c.hits) || reflect.DeepEqual(a.misses, c.misses) || a.closedHits == c.closedHits {
		t.Fatal("seeds 7 and 8 gave the same serve inputs")
	}
	closed := 0
	for k, g := range rungs {
		if g.closed {
			closed++
		}
		if (len(a.hits[k]) == 0) != g.closed || (len(a.misses[k]) == 0) != (g.missRate == 0) {
			t.Fatalf("rung %s: %d hits, %d misses", g.name, len(a.hits[k]), len(a.misses[k]))
		}
	}
	if closed == 0 {
		t.Fatal("the ladder has no closed rung")
	}
	seen := make(map[int]bool)
	for _, ms := range a.misses {
		for _, m := range ms {
			if seen[m.Item] {
				t.Fatalf("miss %d is sent twice", m.Item)
			}
			seen[m.Item] = true
		}
	}
}

// Every run of consecutive misses samples the cost range evenly: with
// the catalogue ranked by cost, the mean rank of any 50 misses in a row
// stays near the middle.
func TestMissOrderSpreadsCost(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		order := missOrder(&rng{s: seed}, identityOrder(missCatalogue))
		for i := 0; i+50 <= len(order); i += 25 {
			sum := 0
			for _, rank := range order[i : i+50] {
				sum += rank
			}
			if mean := float64(sum) / 50; math.Abs(mean-missCatalogue/2) > 0.05*missCatalogue {
				t.Fatalf("seed %d: misses %d..%d have mean cost rank %.0f of %d", seed, i, i+49, mean, missCatalogue)
			}
		}
	}
}

func TestMissCatalogueIsDistinctFromHits(t *testing.T) {
	seen := make(map[string]bool)
	for _, it := range hitSet("tree") {
		j, _ := json.Marshal(it.Sub)
		seen[string(j)] = true
	}
	manifests := 0
	for i := 0; i < missCatalogue; i++ {
		s := missSub(i)
		if s.Manifest != "" {
			manifests++
		}
		j, _ := json.Marshal(s)
		if seen[string(j)] {
			t.Fatalf("miss %d repeats an earlier submission: %s", i, j)
		}
		seen[string(j)] = true
	}
	if manifests == 0 || manifests > missCatalogue/5 {
		t.Fatalf("%d of %d misses are manifest sweeps, want a small share", manifests, missCatalogue)
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 50.5}, {90, 90.1}, {99, 99.01}, {100, 100},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "rung", Layer: layerBench, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: "hit-0-0", Name: "POST", Layer: layerClient, Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: "miss-0-0", Name: "POST", Layer: layerClient, Start: 30, End: 60},
		{ID: 4, Parent: 2, Req: "hit-0-0", Name: "handler", Layer: layerServer, Start: 15, End: 20},
		// A child reaching past its parent only covers the parent's part.
		{ID: 5, Parent: 3, Req: "miss-0-0", Name: "handler", Layer: layerServer, Start: 50, End: 70},
		// An unclosed span has no duration.
		{ID: 6, Parent: 1, Name: "open", Layer: layerCLI, Start: 90},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		layerBench:  100 - 50,             // children cover 10..60 once
		layerClient: (30 - 5) + (30 - 10), // minus each one's server span
		layerServer: 5 + 20,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dvsim/internal/serial.(*Port).Pending":               "serial",
		"dvsim/internal/sim.(*Chan[go.shape.struct {}]).Recv": "sim",
		"dvsim/internal/sim.(*Kernel).Run":                    "sim",
		"dvsim/internal/core.runPipeline.func1":               "core",
		"dvsim/internal/battery.(*TwoWell).Drain":             "battery",
		"dvsim/internal/telemetry.(*Encoder).Float":           "telemetry",
		"dvsim/internal/service.(*Cache).Get":                 "service",
		"dvsim/internal/fault.(*Injector).Verdict":            "other",
		"runtime.mallocgc":                                    "runtime.mem",
		"runtime.memclrNoHeapPointers":                        "runtime.mem",
		"runtime.gcBgMarkWorker":                              "runtime.gc",
		"runtime.scanobject":                                  "runtime.gc",
		"runtime._GC":                                         "runtime.gc",
		"runtime.futex":                                       "runtime.sched",
		"runtime.gopark":                                      "runtime.sched",
		"runtime.selectgo":                                    "runtime.sched",
		"sync.(*Mutex).Lock":                                  "runtime.sched",
		"runtime.mapaccess2_faststr":                          "runtime.other",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime.other",
		"runtime.netpoll":                                     "net",
		"syscall.Syscall6":                                    "net",
		"internal/poll.(*FD).Write":                           "net",
		"net/http.(*conn).serve":                              "net",
		"crypto/sha256.block":                                 "other",
		"main.main":                                           "other",
		"":                                                    "unattributed",
		"runtime._ExternalCode":                               "unattributed",
		"0x00000000004a3f10":                                  "unattributed",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesSumTo100(t *testing.T) {
	sh := cpuShares(map[string]int64{
		"dvsim/internal/sim.(*Kernel).Run": 30,
		"runtime.futex":                    50,
		"":                                 20,
	})
	if len(sh) != len(cpuModules) {
		t.Fatalf("%d shares, want one per module (%d)", len(sh), len(cpuModules))
	}
	total := 0.0
	for _, v := range sh {
		total += v
	}
	if math.Abs(total-100) > 1e-9 || sh["sim"] != 30 || sh["runtime.sched"] != 50 || sh["unattributed"] != 20 {
		t.Fatalf("shares %v (total %g)", sh, total)
	}
	if top, v := topModule(sh); top != "runtime.sched" || v != 50 {
		t.Fatalf("top module %s %g, want runtime.sched 50", top, v)
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseTop(t *testing.T) {
	out := `File: dvsim
Type: cpu
Showing nodes accounting for 430000000ns, 100% of 430000000ns total
      flat  flat%   sum%        cum   cum%
260000000ns 60.47% 60.47% 260000000ns 60.47%  dvsim/internal/serial.(*Port).Pending (inline)
120000000ns 27.91% 88.37% 140000000ns 32.56%  internal/runtime/maps.(*Iter).Next
50000000ns 11.63%   100% 110000000ns 25.58%  0x00000000004a3f10
         0     0%   100% 430000000ns   100%  dvsim/internal/sim.(*Kernel).Run
`
	leaf, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"dvsim/internal/serial.(*Port).Pending": 260e6,
		"internal/runtime/maps.(*Iter).Next":    120e6,
		"0x00000000004a3f10":                    50e6,
		"dvsim/internal/sim.(*Kernel).Run":      0,
	}
	if !reflect.DeepEqual(leaf, want) {
		t.Fatalf("parseTop = %v, want %v", leaf, want)
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Fatal("parseTop accepted output without a table")
	}
}

func TestLeafCPUReadsARealProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(time.Now().Add(400 * time.Millisecond))
	pprof.StopCPUProfile()
	f.Close()
	leaf, err := leafCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for fn, ns := range leaf {
		total += ns
		if strings.HasSuffix(fn, ".spin") || strings.HasPrefix(fn, "time.") {
			mine += ns
		}
	}
	if total == 0 || mine == 0 {
		t.Fatalf("profile decoded to %v; want samples in spin", leaf)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q is not a valid name/unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the metrics'
// consumers read, in step with the metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	type nub struct{ Name, Unit, Better string }
	var want, got []nub
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want = append(want, nub{d.Name, d.Unit, d.Better})
	}
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		got = append(got, nub(d))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json metrics differ from metrics.go:\n got %v\nwant %v", got, want)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
}
