package node

import (
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
)

// threeRoles splits the algorithm over three nodes with comfortable
// operating points.
func threeRoles() []Role {
	spans := atr.Chain(atr.BlockDetect, atr.BlockIFFT, atr.BlockDistance)
	return []Role{
		{Index: 1, Span: spans[0], Compute: cpu.MinPoint, Comm: cpu.MinPoint},
		{Index: 2, Span: spans[1], Compute: cpu.PointAt(118), Comm: cpu.MinPoint},
		{Index: 3, Span: spans[2], Compute: cpu.PointAt(88.5), Comm: cpu.MinPoint},
	}
}

func TestThreeNodeRotationDeliversEveryFrameOnce(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, RotationPeriod: 5}
	r := newRig(t, cfg, threeRoles())
	const frames = 45
	r.start(frames, 2.3, 5)
	r.k.Run()
	if len(r.got) != frames {
		t.Fatalf("delivered %d of %d", len(r.got), frames)
	}
	seen := map[int]int{}
	for _, m := range r.got {
		seen[m.Frame]++
	}
	for f := 0; f < frames; f++ {
		if seen[f] != 1 {
			t.Fatalf("frame %d delivered %d times", f, seen[f])
		}
	}
	// All three nodes rotate, and rotation balances the COMPUTE time
	// (every node runs every stage in turn), even though each node still
	// touches every frame once.
	lo, hi := 1e18, 0.0
	for _, n := range r.nodes {
		if n.Rotations == 0 {
			t.Fatalf("%s never rotated", n.Name)
		}
		c := n.Power().ModeSeconds(cpu.Compute)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > lo*1.4 {
		t.Fatalf("compute time spread %.1f–%.1f s; rotation should balance", lo, hi)
	}
}

func TestThreeNodeRolesReturnAfterFullCycle(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, RotationPeriod: 5}
	r := newRig(t, cfg, threeRoles())
	const frames = 15 // exactly three rotations: roles return to start
	r.start(frames, 2.3, 5)
	r.k.Run()
	if len(r.got) != frames {
		t.Fatalf("delivered %d of %d", len(r.got), frames)
	}
	for i, n := range r.nodes {
		if n.Role().Index != i+1 {
			t.Fatalf("%s holds role %d after N rotations, want %d", n.Name, n.Role().Index, i+1)
		}
	}
}

func TestNativeExecThroughNodes(t *testing.T) {
	// The node runtime must pass payloads through Exec and carry them
	// across rotations.
	pipe := atr.NewPipeline()
	cfg := Config{
		Prof:           atr.Default(),
		D:              2.3,
		RotationPeriod: 3,
		Exec:           pipe.ApplySpan,
	}
	r := newRig(t, cfg, defaultRoles(2))
	scene := atr.NewScene(9)
	const frames = 12
	made := make([]*atr.Image, frames)
	for i := range made {
		made[i], _ = scene.Frame(1)
	}
	// The host injects real frames.
	r.host.MakeFrame = func(f int) any { return made[f] }
	r.start(frames, 2.3, 3)
	r.k.Run()
	results := make([]*atr.Result, frames)
	for _, m := range r.got {
		if res, ok := m.Payload.(*atr.Result); ok {
			results[m.Frame] = res
		}
	}

	ref := atr.NewPipeline()
	for i, frame := range made {
		var want *atr.Result
		if v := ref.ApplySpan(atr.FullSpan, frame); v != nil {
			want = v.(*atr.Result)
		}
		got := results[i]
		if (got == nil) != (want == nil) {
			t.Fatalf("frame %d: native node path diverged (got %v want %v)", i, got, want)
		}
		if got != nil && *got != *want {
			t.Fatalf("frame %d: %+v vs %+v", i, got, want)
		}
	}
}
