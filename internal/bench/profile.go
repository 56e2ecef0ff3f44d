// Package bench arms the standard Go profilers behind the -cpuprofile,
// -memprofile and -trace flags of dvsim and paperbench. Timing
// measurements live in perfbench; the machine-independent checks
// (event counts, allocations, heap bytes, goroutines) are tests in
// internal/core.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// StartProfiles arms the standard Go profilers from command-line flag
// values: a CPU profile, a heap profile written at stop time, and a
// runtime execution trace. Empty paths disable the corresponding
// profiler. The returned stop function must run before exit (defer it
// in main) to flush the profiles; it is safe to call when nothing was
// enabled.
func StartProfiles(cpuPath, memPath, tracePath string) (stop func(), err error) {
	var stops []func()
	cleanup := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("bench: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: cpu profile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("bench: execution trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			cleanup()
			return nil, fmt.Errorf("bench: execution trace: %w", err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: heap profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: heap profile: %v\n", err)
			}
		})
	}
	return cleanup, nil
}
