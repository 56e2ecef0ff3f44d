package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
