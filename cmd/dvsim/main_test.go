package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
// stderr and exit code 2, not a panic.
func TestBadSpecExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "9Z"},
		{"-exp", "3A", "-telemetry", "-", "-until", "60"},
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
