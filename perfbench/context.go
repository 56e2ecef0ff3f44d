package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Context is the machine a result was measured on. Results are only
// comparable between equal contexts; Commit and Source identify the code
// and are what a comparison is meant to vary.
type Context struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit,omitempty"`
	Source     string `json:"source"`
}

func (c Context) String() string {
	id := c.Commit
	if id == "" {
		id = c.Source
	}
	return fmt.Sprintf("%s/%s, %d CPU(s) (GOMAXPROCS %d), %s, %s, %.12s", c.GOOS, c.GOARCH, c.NumCPU, c.GOMAXPROCS, c.Go, c.CPU, id)
}

// sameMachine reports the first context field that differs, or "".
func (c Context) sameMachine(o Context) string {
	switch {
	case c.GOOS != o.GOOS || c.GOARCH != o.GOARCH:
		return "goos/goarch"
	case c.NumCPU != o.NumCPU:
		return "nproc"
	case c.GOMAXPROCS != o.GOMAXPROCS:
		return "GOMAXPROCS"
	case c.Go != o.Go:
		return "Go version"
	case c.CPU != o.CPU:
		return "CPU model"
	}
	return ""
}

func currentContext(root string) Context {
	return Context{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "" outside a git work tree.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's sources (go.mod, cmd/ and internal/),
// so results from a checkout without git history still name their code.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints the metric ratios of two summaries and refuses to
// compare results taken on different machines.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD/summary.json NEW/summary.json")
		return 2
	}
	var s [2]Summary
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &s[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	if f := s[0].Context.sameMachine(s[1].Context); f != "" {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s differs\n  old: %s\n  new: %s\n", f, s[0].Context, s[1].Context)
		return 2
	}
	if s[0].Workload != s[1].Workload || s[0].Trace != s[1].Trace || s[0].Seconds != s[1].Seconds {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing: workload, trace or run length differs")
		return 2
	}
	names := make([]string, 0, len(s[0].Result.Metrics))
	for n := range s[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %8s\n", "metric", "old", "new", "new/old")
	for _, n := range names {
		o, nw := s[0].Result.Metrics[n], s[1].Result.Metrics[n]
		ratio := "-"
		if o.Value != 0 {
			ratio = strconv.FormatFloat(nw.Value/o.Value, 'f', 3, 64)
		}
		fmt.Printf("%-34s %14.6g %14.6g %8s %s\n", n, o.Value, nw.Value, ratio, o.Unit)
	}
	return 0
}

// rowWriter writes one CSV row per timed operation, so medians and
// quartiles can be recomputed from the raw measurements.
type rowWriter struct {
	f        *os.File
	w        *csv.Writer
	t0       time.Time
	workload string
	seed     string
	trace    string
}

func newRowWriter(path, workload string, seed uint64, trace bool) (*rowWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"workload", "seed", "trace", "phase", "op", "i", "start_s", "dur_s", "value", "unit", "status"})
	t := "0"
	if trace {
		t = "1"
	}
	return &rowWriter{f: f, w: w, t0: time.Now(), workload: workload, seed: strconv.FormatUint(seed, 10), trace: t}, nil
}

var statusNames = [...]string{opOK: "ok", opFailed: "failed", opWrong: "wrong"}

func (r *rowWriter) write(phase, op string, i int, start time.Time, dur time.Duration, value float64, unit string, status int) {
	r.w.Write([]string{
		r.workload, r.seed, r.trace, phase, op, strconv.Itoa(i),
		strconv.FormatFloat(start.Sub(r.t0).Seconds(), 'f', 6, 64),
		strconv.FormatFloat(dur.Seconds(), 'f', 9, 64),
		strconv.FormatFloat(value, 'g', -1, 64), unit, statusNames[status],
	})
}

func (r *rowWriter) close() error {
	r.w.Flush()
	if err := r.w.Error(); err != nil {
		r.f.Close()
		return err
	}
	return r.f.Close()
}
