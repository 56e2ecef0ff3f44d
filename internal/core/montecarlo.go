package core

import (
	"context"
	"hash/fnv"
	"math"

	"dvsim/internal/fault"
	"dvsim/internal/sweep"
)

// ForkResult is one Monte Carlo run's outcome digest.
type ForkResult struct {
	// Seed is the run's fault seed from the warm point on.
	Seed uint64
	// Records is the run's telemetry record count; Sum64 is the FNV-1a
	// digest of its telemetry bytes. Equal digests mean byte-identical
	// futures (seeds whose divergence never materialized); the digest
	// spread is the study's headline answer.
	Records int
	Sum64   uint64
	// Err is the run's failure, nil on success.
	Err error
}

// MonteCarlo runs one seeded future per seed and digests each run's
// telemetry over s.UntilS, running up to workers at once (≤ 0 selects
// GOMAXPROCS). Results are in seed order.
//
// Every run is a cold Simulate of the same spec whose fault scenario —
// Params.Faults, or experiment 2D's built-in load, or none — is
// reseeded at the warm point: the shared Seed reproduces one history up
// to warmS, and each run's own seed takes over from there. warmS is
// quantized to the nearest frame boundary (at least one frame), where
// no transfer is mid-wire by construction; the quantized warm point is
// returned.
func MonteCarlo(s Spec, warmS float64, seeds []uint64, workers int) (float64, []ForkResult, error) {
	if warmS <= 0 {
		return 0, nil, specErr("non-positive warm point %v", warmS)
	}
	if err := s.Check(); err != nil {
		return 0, nil, err
	}
	d := s.Params.FrameDelayS
	warm := math.Max(1, math.Round(warmS/d)) * d
	if s.UntilS <= warm {
		return 0, nil, specErr("horizon %v s not past the warm point %v s", s.UntilS, warm)
	}
	var base fault.Scenario
	if sc := s.ID.FaultLoad(s.Params.Faults); sc != nil {
		base = *sc
	}
	res := sweep.Run(seeds, workers, func(seed uint64) ForkResult {
		sc := base
		sc.ReseedAtS = warm
		sc.ReseedSeed = seed
		run := s
		run.Params.Faults = &sc
		h := fnv.New64a()
		out, err := Simulate(context.Background(), run, Sinks{Log: h, Telemetry: true})
		return ForkResult{Seed: seed, Records: out.Records, Sum64: h.Sum64(), Err: err}
	})
	return warm, res, nil
}
