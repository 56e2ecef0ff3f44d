package core

import (
	"testing"

	"dvsim/internal/atr"
)

// TestNativePipelineMatchesLocalProcessing runs the real ATR computation
// through the simulated two-node pipeline and checks that every result
// delivered to the host equals what single-node local processing of the
// same frames produces: the distributed execution is semantics-preserving.
func TestNativePipelineMatchesLocalProcessing(t *testing.T) {
	p := staticParams()
	const frames = 25
	seed := int64(77)

	got := make([]*atr.Result, frames)
	out := mustSimulate(t, Spec{
		Stages: bestStages(t, p),
		Label:  "native",
		Native: &Native{Scene: atr.NewScene(seed), Pipe: atr.NewPipeline()},
		Params: p,
		Frames: frames,
	}, Sinks{OnResult: func(frame int, payload any) {
		if r, ok := payload.(*atr.Result); ok && frame < frames {
			got[frame] = r
		}
	}})
	if out.Frames != frames {
		t.Fatalf("delivered %d results, want %d", out.Frames, frames)
	}

	// Reference: process the identical frame sequence locally.
	scene := atr.NewScene(seed)
	pipe := atr.NewPipeline()
	refs := make([]*atr.Result, frames)
	for i := 0; i < frames; i++ {
		frame, _ := scene.Frame(1)
		if v := pipe.ApplySpan(atr.FullSpan, frame); v != nil {
			refs[i] = v.(*atr.Result)
		}
	}

	for i, g := range got {
		want := refs[i]
		if (g == nil) != (want == nil) {
			t.Fatalf("frame %d: pipeline %v vs local %v", i, g, want)
		}
		if g == nil {
			continue
		}
		if g.Template != want.Template || g.X != want.X || g.Y != want.Y {
			t.Fatalf("frame %d: pipeline %+v vs local %+v", i, g, want)
		}
	}
}

func TestNativeRotationPreservesResults(t *testing.T) {
	p := DefaultParams()
	p.RotationPeriod = 7
	const frames = 30
	got := make([]*atr.Result, frames)
	out := mustSimulate(t, Spec{
		Stages: bestStages(t, p),
		Label:  "native-rot",
		Native: &Native{Scene: atr.NewScene(5), Pipe: atr.NewPipeline()},
		Params: p,
		Frames: frames,
	}, Sinks{OnResult: func(frame int, payload any) {
		if r, ok := payload.(*atr.Result); ok && frame < frames {
			got[frame] = r
		}
	}})
	if out.Frames != frames {
		t.Fatalf("delivered %d results, want %d", out.Frames, frames)
	}
	// Reference.
	scene := atr.NewScene(5)
	pipe := atr.NewPipeline()
	for i := 0; i < frames; i++ {
		frame, _ := scene.Frame(1)
		var want *atr.Result
		if v := pipe.ApplySpan(atr.FullSpan, frame); v != nil {
			want = v.(*atr.Result)
		}
		g := got[i]
		if (g == nil) != (want == nil) {
			t.Fatalf("frame %d: rotation changed detectability", i)
		}
		if g != nil && (g.Template != want.Template || g.DistanceM != want.DistanceM) {
			t.Fatalf("frame %d: rotation changed the result: %+v vs %+v", i, g, want)
		}
	}
}
