package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// reference holds the outputs every run is checked against, made once
// at a commit whose outputs are known to be right. The suite table and
// the serve workload's 120 s windows are checked against the committed
// goldens directly; everything else against these digests.
type reference struct {
	// SuiteWallH is Σ WallH over the paper suite: the simulated hours
	// of one dvsim -compare pass.
	SuiteWallH float64                `json:"suite_wall_h"`
	Logs       map[string]logRef      `json:"logs"`
	Manifests  map[string]manifestRef `json:"manifests"`
	MonteCarlo string                 `json:"monte_carlo_sha256"`
	// Hits are the digests of the serve working set's larger artifacts.
	Hits map[string]string `json:"hits"`
	// Misses are the digests of the miss catalogue, by index.
	Misses []string `json:"misses"`
	// MissCostOrder lists the miss catalogue from the quickest to the
	// slowest to answer at the reference commit. Runs draw their misses
	// evenly over this order (see missOrder).
	MissCostOrder []int `json:"miss_cost_order"`
}

type logRef struct {
	SHA256  string `json:"sha256"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
}

type manifestRef struct {
	SHA256 string `json:"sha256"`
	Lines  int64  `json:"lines"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Misses) != missCatalogue {
		return nil, fmt.Errorf("%s: %d miss digests, want %d", path, len(r.Misses), missCatalogue)
	}
	if len(r.MissCostOrder) != missCatalogue {
		return nil, fmt.Errorf("%s: miss_cost_order has %d entries, want %d", path, len(r.MissCostOrder), missCatalogue)
	}
	seen := make([]bool, missCatalogue)
	for _, i := range r.MissCostOrder {
		if i < 0 || i >= missCatalogue || seen[i] {
			return nil, fmt.Errorf("%s: miss_cost_order is not an order of the %d misses", path, missCatalogue)
		}
		seen[i] = true
	}
	return &r, nil
}

// referenceMain regenerates testdata/reference.json from the current
// binaries. Run it only at a commit whose outputs are known to be right:
// every later run is judged against what it writes.
func referenceMain(args []string) int {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	root := fs.String("root", ".", "repository checkout")
	bin := fs.String("bin", ".bench_build/bin", "directory holding dvsim, dvsimd and probe")
	fs.Parse(args)
	if err := makeReference(*root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	return 0
}

func makeReference(root, bin string) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	out := filepath.Join(root, ".bench_build", "perfbench", "reference")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rows, err := newRowWriter(filepath.Join(out, "rows.csv"), "reference", 0, false)
	if err != nil {
		return err
	}
	defer rows.close()
	b := &bench{root: root, bin: bin, out: out, rows: rows, ref: &reference{}}
	ref := &reference{Logs: map[string]logRef{}, Manifests: map[string]manifestRef{}, Hits: map[string]string{}}

	w, err := exec.Command(filepath.Join(bin, "probe"), "wallh").Output()
	if err != nil {
		return fmt.Errorf("probe wallh: %w", err)
	}
	if ref.SuiteWallH, err = strconv.ParseFloat(strings.TrimSpace(string(w)), 64); err != nil {
		return err
	}
	for _, exp := range batchLogs {
		sink := newHashSink()
		r := b.cli("dvsim", 0, sink, "-exp", exp, "-telemetry", "-", "-until", "0")
		if r.err != nil {
			return fmt.Errorf("log %s: %v", exp, r.err)
		}
		ref.Logs[exp] = logRef{sink.sum(), sink.lines, sink.bytes}
	}
	for _, m := range batchManifests {
		r := b.cli("dvsim", 0, nil, "-manifest", manifestPath(m), "-j", batchWorkers)
		if r.err != nil {
			return fmt.Errorf("manifest %s: %v", m, r.err)
		}
		ref.Manifests[m] = manifestRef{sha256Hex(r.stdout), int64(bytes.Count(r.stdout, []byte{'\n'})) - 1}
	}
	r := b.cli("dvsim", 0, nil, "-exp", "2D", "-mc", strconv.Itoa(batchForks), "-j", batchWorkers)
	if r.err != nil {
		return fmt.Errorf("monte carlo: %v", r.err)
	}
	ref.MonteCarlo = sha256Hex(r.stdout)

	srv, err := b.startServer("reference", false)
	if err != nil {
		return err
	}
	tree, err := os.ReadFile(b.path(manifestPath("tree_scaling")))
	if err != nil {
		srv.stop()
		return err
	}
	var buf bytes.Buffer
	c := newClient()
	for _, it := range hitSet(string(tree)) {
		sub, _ := json.Marshal(it.Sub)
		rep, err := submit(c, srv.base, sub, 0, "", &buf)
		if err == nil && rep.code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", rep.code)
		}
		if err != nil {
			srv.stop()
			return fmt.Errorf("hit %s: %w", it.Name, err)
		}
		if it.Golden == "" {
			ref.Hits[it.Name] = sha256Hex(rep.body)
		}
	}
	ref.Misses = make([]string, missCatalogue)
	cost := make([]time.Duration, missCatalogue)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := newClient()
			var buf bytes.Buffer
			for i := lane; i < missCatalogue; i += 2 {
				sub, _ := json.Marshal(missSub(i))
				t0 := time.Now()
				rep, err := submit(c, srv.base, sub, 0, "", &buf)
				cost[i] = time.Since(t0)
				if err == nil && (rep.code != http.StatusOK || rep.verdict != "miss" || (rep.status != "" && rep.status != "ok")) {
					err = fmt.Errorf("HTTP %d, cache %q, status %q", rep.code, rep.verdict, rep.status)
				}
				if err != nil {
					errs[lane] = fmt.Errorf("miss %d: %w", i, err)
					return
				}
				ref.Misses[i] = sha256Hex(rep.body)
			}
		}(lane)
	}
	wg.Wait()
	if _, err := srv.stop(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ref.MissCostOrder = make([]int, missCatalogue)
	for i := range ref.MissCostOrder {
		ref.MissCostOrder[i] = i
	}
	sort.SliceStable(ref.MissCostOrder, func(a, b int) bool {
		return cost[ref.MissCostOrder[a]] < cost[ref.MissCostOrder[b]]
	})
	return writeJSON(filepath.Join(root, "perfbench", "testdata", "reference.json"), ref)
}
