package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dvsim/internal/service"
)

// TestMain lets the test binary stand in for dvsim: with DVSIM_RUN_MAIN
// set it runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DVSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dvsim runs the command with args and returns its stdout, stderr and
// exit code.
func dvsim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestTelemetryNoIOExperiment: the no-I/O experiments log like every
// other run.
func TestTelemetryNoIOExperiment(t *testing.T) {
	stdout, stderr, code := dvsim(t, "-exp", "0A", "-telemetry", "-", "-until", "600")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, `"event":"mode"`) || !strings.Contains(stdout, `"event":"sample"`) {
		t.Fatalf("0A telemetry lacks mode or sample records:\n%.300s", stdout)
	}
}

// TestBadSpecExitsTwo: a spec the simulator rejects is one line on
// stderr and exit code 2, not a panic: bad flags, bad spec files and
// runfiles whose lines cannot run.
func TestBadSpecExitsTwo(t *testing.T) {
	dir := t.TempDir()
	file := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, args := range [][]string{
		{"-exp", "9Z"},
		{"-exp", "3A", "-telemetry", "-", "-until", "60"},
		{"-exp", "2", "-governor", "interval:alpha=2"},
		{"-exp", "2", "-governor", "buffer:hi=1e300"},
		{"-exp", "2", "-faults", file("faults.json", `{"links": [`)},
		{"-exp", "1", "-params", file("params.json", `{"frame_delay_s": "slow"}`)},
		{"-exp", "1", "-rotation", "5"},
		{"-mc", "2", "-until", "120", "-rotation", "5"},
		{"-manifest", file("governor.toml", "experiment, governor\n\"2\", \"interval:alpha=2\"\n")},
		{"-manifest", file("infeasible.toml", "experiment, d, frames\n\"2\", 0.5, 5\n")},
	} {
		_, stderr, code := dvsim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if lines := strings.Count(strings.TrimSpace(stderr), "\n") + 1; lines != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: stderr is not one line:\n%s", args, stderr)
		}
	}
}

// TestUnreadFlagExitsTwo: a flag the selected mode does not read exits
// 2 and names the flag, before any output file is created.
func TestUnreadFlagExitsTwo(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, c := range []struct {
		args   []string
		unread string
	}{
		{[]string{"-runlog", "5", "-metrics=" + out("m.csv")}, "-metrics"},
		{[]string{"-exp", "3A", "-frames", "20", "-ports=" + out("p.csv")}, "-ports"},
		{[]string{"-exp", "1", "-telemetry", out("t.jsonl"), "-until", "5", "-ports=" + out("p.csv")}, "-ports"},
		{[]string{"-version", "-exp", "9Z", "-ports=" + out("p.csv")}, "-exp"},
	} {
		_, stderr, code := dvsim(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.unread+" does not apply") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.unread)
		}
		if files, _ := os.ReadDir(dir); len(files) > 0 {
			t.Errorf("%v: created %s", c.args, files[0].Name())
		}
	}
}

// TestUnreadSettingRefusedAlike: a setting the experiment does not read
// is refused with exit 2 and core's one message by each front end: the
// flag, the runfile line that sets it, and the envelope dvsim -remote
// ships to a dvsimd server. A spec the server refuses for any other
// reason exits 2 as well, as it does locally.
func TestUnreadSettingRefusedAlike(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()
	linkdrop, err := filepath.Abs(filepath.Join("..", "..", "scenarios", "linkdrop.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, c := range []struct {
		flags        []string // after -exp ID
		id, col, val string   // the runfile line
		want         string
	}{
		{[]string{"-rotation", "5"}, "1", "rotation", "5", "experiment 1 does not read rotation"},
		{[]string{"-faults", linkdrop}, "0A", "faults", `"` + linkdrop + `"`, "experiment 0A does not read faults"},
		{[]string{"-governor", "pid"}, "0B", "governor", `"pid"`, "experiment 0B does not read governor"},
		{[]string{"-governor", "interval:alpha=2"}, "2", "governor", `"interval:alpha=2"`, "outside (0, 1]"},
	} {
		runfile := filepath.Join(dir, fmt.Sprintf("line%d.toml", i))
		text := fmt.Sprintf("experiment, %s\n%q, %s\n", c.col, c.id, c.val)
		if err := os.WriteFile(runfile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		local := append([]string{"-exp", c.id}, c.flags...)
		for _, args := range [][]string{
			local,
			{"-manifest", runfile},
			append([]string{"-remote", hs.URL}, local...),
		} {
			_, stderr, code := dvsim(t, args...)
			if code != 2 || !strings.Contains(stderr, c.want) {
				t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", args, code, stderr, c.want)
			}
		}
	}
}

// TestRotationRead2C: experiment 2C reads -rotation, so the flag
// changes its run. Every other experiment refuses it
// (TestUnreadSettingRefusedAlike).
func TestRotationRead2C(t *testing.T) {
	base, stderr, code := dvsim(t, "-exp", "2C")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	rotated, stderr, code := dvsim(t, "-exp", "2C", "-rotation", "5")
	if code != 0 {
		t.Fatalf("-rotation 5: exit %d: %s", code, stderr)
	}
	if rotated == base {
		t.Error("-exp 2C -rotation 5 printed the same bytes as the default rotation period")
	}
}

// TestMetricsGolden pins the metrics snapshots dvsim prints: the whole
// suite, a pid-governed experiment 2 and 2D under a crash and restart.
// The goldens live beside the library's metrics goldens.
func TestMetricsGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"metrics", []string{"-metrics"}},
		{"metrics_2_pid", []string{"-metrics", "-exp", "2", "-governor", "pid"}},
		{"metrics_2D_crashrestart", []string{"-metrics", "-exp", "2D", "-faults", "../../scenarios/crashrestart.json"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			stdout, stderr, code := dvsim(t, c.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			path := filepath.Join("..", "..", "internal", "report", "testdata", c.golden+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("dvsim %s drifted from %s", strings.Join(c.args, " "), path)
			}
		})
	}
}
