// Package hotalloc is the static zero-allocation gate for the
// simulator's hot paths. The dynamic gate (TestAllocsPerRun and the
// other testing.AllocsPerRun tests) catches a reintroduced allocation
// only on the exact code path a test drives; this gate
// asks the compiler instead. It builds the hot packages with
// -gcflags=-m, collects the escape-analysis diagnostics ("escapes to
// heap", "moved to heap") for the gated files, and compares them
// against a committed allowlist. A diagnostic not in the allowlist —
// a new escape on the record path — fails the gate at the line that
// introduced it, whether or not any benchmark exercises it.
//
// The allowlist (allowlist.txt, next to this file) is keyed by
// file-and-message, not line number, so unrelated edits that only move
// code do not churn it; a count per key tolerates repeated identical
// diagnostics (closures on distinct lines of one file often normalize
// to the same message). The workflow when a legitimate escape is added
// — a cold-path closure, a deliberate boxing — is to regenerate with
//
//	go run ./cmd/dvsimlint -hotalloc-write
//
// and commit the diff, which makes every new escape reviewable in the
// PR that introduces it.
package hotalloc

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Target is one gated package. With Files empty the whole package is
// gated; otherwise only diagnostics in the listed files (module-root
// relative, slash-separated) count.
type Target struct {
	Pkg   string
	Files []string
}

// Targets returns the gated hot path: the telemetry encoder, the
// simulation kernel, and the record path through internal/core. The
// rest of core (experiment orchestration, manifest parsing) allocates
// deliberately at setup time and is not gated.
func Targets() []Target {
	return []Target{
		{Pkg: "dvsim/internal/telemetry"},
		{Pkg: "dvsim/internal/sim"},
		{Pkg: "dvsim/internal/core", Files: []string{"internal/core/runlog.go"}},
	}
}

// AllowlistPath is the committed allowlist, relative to the module
// root.
const AllowlistPath = "internal/lint/hotalloc/allowlist.txt"

// Diag is one escape-analysis diagnostic in a gated file.
type Diag struct {
	File    string // module-root relative, slash-separated
	Line    int
	Message string
}

// Key is the allowlist identity of a diagnostic: file plus message,
// no line number.
func (d Diag) Key() string { return d.File + ": " + d.Message }

// Report is the outcome of one gate run.
type Report struct {
	Diags   []Diag         // observed gated diagnostics, source order
	Counts  map[string]int // observed count per key
	Allowed map[string]int // allowlist count per key
}

// Run builds the targets under modRoot with escape analysis enabled
// and collects the gated diagnostics. The Go build cache replays
// compiler diagnostics on cache hits, so repeat runs see the same
// output without forcing rebuilds.
func Run(modRoot string, targets []Target, allowed map[string]int) (*Report, error) {
	args := []string{"build", "-gcflags=-m"}
	for _, t := range targets {
		args = append(args, t.Pkg)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("hotalloc: go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	rep := &Report{Counts: map[string]int{}, Allowed: allowed}
	for _, line := range strings.Split(string(out), "\n") {
		d, ok := parseDiag(line)
		if !ok || !gated(targets, d.File) {
			continue
		}
		rep.Diags = append(rep.Diags, d)
		rep.Counts[d.Key()]++
	}
	return rep, nil
}

// parseDiag extracts a gate-relevant diagnostic from one line of
// compiler output: "FILE:LINE:COL: MESSAGE" where MESSAGE reports a
// heap escape. Inlining, leaking-param and other -m chatter is
// ignored.
func parseDiag(line string) (Diag, bool) {
	if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
		return Diag{}, false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return Diag{}, false
	}
	ln, err := strconv.Atoi(parts[1])
	if err != nil {
		return Diag{}, false
	}
	return Diag{
		File:    filepath.ToSlash(strings.TrimSpace(parts[0])),
		Line:    ln,
		Message: strings.TrimSpace(parts[3]),
	}, true
}

// gated reports whether a diagnostic file falls under one of the
// targets. Compiler output also replays diagnostics of dependencies
// out of the build cache; those must not enter the gate.
func gated(targets []Target, file string) bool {
	for _, t := range targets {
		if len(t.Files) > 0 {
			for _, f := range t.Files {
				if file == f {
					return true
				}
			}
			continue
		}
		dir := strings.TrimPrefix(t.Pkg, "dvsim/")
		if strings.HasPrefix(file, dir+"/") {
			return true
		}
	}
	return false
}

// Failures returns the keys observed more often than the allowlist
// admits, rendered with both counts, sorted. Empty means the gate
// passes.
func (r *Report) Failures() []string {
	var out []string
	for key, got := range r.Counts {
		if got > r.Allowed[key] {
			out = append(out, fmt.Sprintf("%s (got %d, allowed %d)", key, got, r.Allowed[key]))
		}
	}
	sort.Strings(out)
	return out
}

// Diff renders the full got-vs-allowed comparison: over-allowance
// entries as "+", stale allowlist entries (allowed but no longer
// observed) as "-". CI uploads it as the failure artifact.
func (r *Report) Diff() string {
	var sb strings.Builder
	sb.WriteString("hotalloc escape-diagnostics diff (observed vs allowlist)\n")
	var keys []string
	for key := range r.Counts {
		keys = append(keys, key)
	}
	for key := range r.Allowed {
		if _, ok := r.Counts[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	clean := true
	for _, key := range keys {
		got, want := r.Counts[key], r.Allowed[key]
		switch {
		case got > want:
			fmt.Fprintf(&sb, "+ %d/%d %s\n", got, want, key)
			clean = false
		case got < want:
			fmt.Fprintf(&sb, "- %d/%d %s\n", got, want, key)
			clean = false
		}
	}
	if clean {
		sb.WriteString("(observed diagnostics match the allowlist exactly)\n")
	}
	return sb.String()
}

// LoadAllowlist parses an allowlist file: "<count> <file>: <message>"
// lines, '#' comments and blank lines ignored. A missing file is an
// empty allowlist, so a fresh checkout fails closed, not open.
func LoadAllowlist(path string) (map[string]int, error) {
	allowed := map[string]int{}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return allowed, nil
		}
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		count, rest, ok := strings.Cut(line, " ")
		n, err := strconv.Atoi(count)
		if !ok || err != nil || n < 1 {
			return nil, fmt.Errorf("%s:%d: allowlist line needs \"<count> <file>: <message>\": %q", path, i+1, line)
		}
		allowed[rest] += n
	}
	return allowed, nil
}

// FormatAllowlist renders counts in the committed file format,
// deterministically sorted, for -hotalloc-write.
func FormatAllowlist(counts map[string]int) string {
	var sb strings.Builder
	sb.WriteString("# hotalloc allowlist: sanctioned escape-analysis diagnostics on the\n")
	sb.WriteString("# gated hot packages. Keyed by <file>: <message> with a tolerated\n")
	sb.WriteString("# count, no line numbers, so pure code motion does not churn it.\n")
	sb.WriteString("# Regenerate with: go run ./cmd/dvsimlint -hotalloc-write\n")
	var keys []string
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(&sb, "%d %s\n", counts[key], key)
	}
	return sb.String()
}
