package atr

import (
	"math"
	"testing"
)

func TestFrameBytesMatchesPaperPayload(t *testing.T) {
	// 10.1 KB input frame (Fig 6).
	if FrameBytes != 10100 {
		t.Fatalf("FrameBytes = %d, want 10100", FrameBytes)
	}
	if ROIBytes != 600 {
		t.Fatalf("ROIBytes = %d, want 600 (0.6 KB, Fig 6)", ROIBytes)
	}
}

func TestImageBasics(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, 0.5)
	if im.At(1, 2) != 0.5 {
		t.Fatal("Set/At round trip failed")
	}
	if im.At(-1, 0) != 0 || im.At(4, 0) != 0 || im.At(0, 3) != 0 {
		t.Fatal("out-of-bounds reads must be 0")
	}
	im.Set(-1, 0, 9) // dropped
	if im.At(0, 0) != 0 {
		t.Fatal("out-of-bounds write leaked")
	}
}

func TestSubImageClamps(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(3, 3, 1)
	sub := im.SubImage(3, 3, 3, 3)
	if sub.At(0, 0) != 1 {
		t.Fatal("sub-image lost pixel")
	}
	if sub.At(2, 2) != 0 {
		t.Fatal("out-of-source region must be 0")
	}
}

func TestResizePreservesShape(t *testing.T) {
	tpl := DefaultTemplates()[2] // bunker
	big := tpl.Img.Resize(32, 32)
	if big.W != 32 || big.H != 32 {
		t.Fatal("resize dimensions wrong")
	}
	// The hollow square must still be hollow: center darker than ring.
	center := big.At(16, 16)
	ring := big.At(16, 3)
	if center >= ring {
		t.Fatalf("resize destroyed shape: center %v, ring %v", center, ring)
	}
}

func TestSceneDeterminism(t *testing.T) {
	a, ta := NewScene(42).Frame(1)
	b, tb := NewScene(42).Frame(1)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different frames")
		}
	}
	if len(ta) != 1 || len(tb) != 1 || ta[0] != tb[0] {
		t.Fatal("same seed produced different ground truth")
	}
}

func TestSceneFrameDimensions(t *testing.T) {
	frame, placed := NewScene(1).Frame(2)
	if frame.W != FrameW || frame.H != FrameH {
		t.Fatalf("frame %dx%d", frame.W, frame.H)
	}
	if len(placed) != 2 {
		t.Fatalf("placed %d targets, want 2", len(placed))
	}
	for _, p := range placed {
		if p.X < 0 || p.Y < 0 || p.X+p.SizePx > FrameW || p.Y+p.SizePx > FrameH {
			t.Fatalf("target out of frame: %+v", p)
		}
	}
}

func TestDistanceForSizeInvertsApparentSize(t *testing.T) {
	tpl := DefaultTemplates()[0]
	for _, d := range []float64{60, 100, 150} {
		size := float64(tpl.BaseSizePx) * tpl.RefDistanceM / d
		back := DistanceForSize(tpl, size)
		if math.Abs(back-d) > 1e-9 {
			t.Errorf("distance %v -> size %v -> %v", d, size, back)
		}
	}
	if !math.IsInf(DistanceForSize(tpl, 0), 1) {
		t.Error("zero size should give infinite distance")
	}
}

func TestDetectorFindsPlantedTarget(t *testing.T) {
	scene := NewScene(7)
	hits := 0
	const frames = 20
	for i := 0; i < frames; i++ {
		frame, placed := scene.Frame(1)
		dets := NewDetector().Detect(frame)
		if len(dets) == 0 {
			continue
		}
		d := dets[0]
		p := placed[0]
		// The ROI must overlap the planted target.
		if d.X < p.X+p.SizePx && p.X < d.X+ROIW && d.Y < p.Y+p.SizePx && p.Y < d.Y+ROIH {
			hits++
		}
	}
	if hits < frames*9/10 {
		t.Fatalf("detector hit %d/%d planted targets", hits, frames)
	}
}

func TestDetectorQuietFrameYieldsNothing(t *testing.T) {
	im := NewImage(FrameW, FrameH)
	for i := range im.Pix {
		im.Pix[i] = 0.2
	}
	if dets := NewDetector().Detect(im); len(dets) != 0 {
		t.Fatalf("flat frame produced %d detections", len(dets))
	}
}

func TestDetectorMultiTargetNMS(t *testing.T) {
	scene := NewScene(99)
	frame, _ := scene.Frame(3)
	det := NewDetector()
	det.MaxTargets = 3
	dets := det.Detect(frame)
	for i := 0; i < len(dets); i++ {
		for j := i + 1; j < len(dets); j++ {
			if abs(dets[i].X-dets[j].X) < ROIW && abs(dets[i].Y-dets[j].Y) < ROIH {
				t.Fatalf("overlapping detections survived NMS: %+v %+v", dets[i], dets[j])
			}
		}
	}
}

func TestPipelineEndToEndAccuracy(t *testing.T) {
	p := NewPipeline()
	scene := NewScene(123)
	scene.NoiseSigma = 0.03

	const frames = 30
	detected, tplRight, distOK := 0, 0, 0
	for i := 0; i < frames; i++ {
		frame, placed := scene.Frame(1)
		results := p.Process(frame)
		if len(results) == 0 {
			continue
		}
		detected++
		r := results[0]
		truth := placed[0]
		if r.Template == truth.Template {
			tplRight++
		}
		if relErr := math.Abs(r.DistanceM-truth.DistanceM) / truth.DistanceM; relErr < 0.35 {
			distOK++
		}
	}
	if detected < frames*8/10 {
		t.Fatalf("pipeline detected %d/%d", detected, frames)
	}
	if tplRight < detected*5/10 {
		t.Fatalf("template identification %d/%d", tplRight, detected)
	}
	if distOK < detected*6/10 {
		t.Fatalf("distance within 35%% on only %d/%d", distOK, detected)
	}
}

func TestPipelineStagesComposeLikeProcess(t *testing.T) {
	p := NewPipeline()
	frame, _ := NewScene(5).Frame(1)
	whole := p.Process(frame)
	var staged []Result
	for _, det := range p.Stage1Detect(frame) {
		spec := p.Stage2FFT(det)
		resp := p.Stage3IFFT(spec)
		staged = append(staged, p.Stage4Distance(det, resp))
	}
	if len(whole) != len(staged) {
		t.Fatalf("whole %d results, staged %d", len(whole), len(staged))
	}
	for i := range whole {
		if whole[i] != staged[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, whole[i], staged[i])
		}
	}
}

func TestPipelineRejectsWrongFrameSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong frame size accepted")
		}
	}()
	NewPipeline().Process(NewImage(10, 10))
}

func TestCorrelateRejectsWrongSpectrum(t *testing.T) {
	bank := NewFilterBank(DefaultTemplates()[:1], []int{8})
	defer func() {
		if recover() == nil {
			t.Error("wrong spectrum size accepted")
		}
	}()
	bank.Correlate(Spectrum{W: 8, H: 8, Data: make([]complex128, 64)})
}

func TestFilterBankResponseOrdering(t *testing.T) {
	bank := NewFilterBank(DefaultTemplates(), []int{8, 12})
	frame, _ := NewScene(3).Frame(1)
	dets := NewDetector().Detect(frame)
	if len(dets) == 0 {
		t.Skip("no detection on this seed")
	}
	resp := bank.Correlate(bank.ROISpectrum(dets[0].ROI))
	if len(resp) != len(bank.Templates)*len(bank.Sizes) {
		t.Fatalf("%d responses", len(resp))
	}
	k := 0
	for ti := range bank.Templates {
		for si := range bank.Sizes {
			if resp[k].Template != ti || resp[k].SizeIdx != si {
				t.Fatalf("response %d has (%d,%d), want (%d,%d)", k, resp[k].Template, resp[k].SizeIdx, ti, si)
			}
			k++
		}
	}
}

func TestComputeDistanceEmptyResponses(t *testing.T) {
	bank := NewFilterBank(DefaultTemplates()[:1], []int{8})
	r := ComputeDistance(bank, Detection{X: 3, Y: 4}, nil)
	if r.Template != "none" || r.X != 3 || r.Y != 4 {
		t.Fatalf("empty responses gave %+v", r)
	}
}

func TestCenteredAndEnergy(t *testing.T) {
	im := NewImage(2, 2)
	im.Pix = []float64{1, 2, 3, 4}
	c := Centered(im)
	var sum float64
	for _, v := range c {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("centered sum = %v", sum)
	}
	if e := Energy([]float64{3, 4}); math.Abs(e-5) > 1e-12 {
		t.Fatalf("Energy = %v, want 5", e)
	}
}
