package atr

import "testing"

func TestApplySpanEqualsProcess(t *testing.T) {
	p := NewPipeline()
	frame, _ := NewScene(21).Frame(1)
	whole := p.Process(frame)
	staged := p.ApplySpan(FullSpan, frame)
	if len(whole) == 0 {
		if staged != nil {
			t.Fatal("span found a target Process missed")
		}
		return
	}
	r, ok := staged.(*Result)
	if !ok || *r != whole[0] {
		t.Fatalf("span result %+v vs %+v", staged, whole[0])
	}
}

func TestApplySpanPartialComposition(t *testing.T) {
	p := NewPipeline()
	frame, _ := NewScene(31).Frame(1)
	first, second := SplitAfter(BlockDetect)
	inter := p.ApplySpan(first, frame)
	final := p.ApplySpan(second, inter)
	direct := p.ApplySpan(FullSpan, frame)
	if (final == nil) != (direct == nil) {
		t.Fatal("partial composition disagrees about detection")
	}
	if final != nil && *(final.(*Result)) != *(direct.(*Result)) {
		t.Fatalf("partial %+v vs direct %+v", final, direct)
	}
}

func TestApplyBlockNilPassThrough(t *testing.T) {
	p := NewPipeline()
	for _, b := range Blocks {
		if out := p.ApplyBlock(b, nil); out != nil {
			t.Fatalf("block %v conjured data from nil", b)
		}
	}
}

func TestApplyBlockTypeMismatchPanics(t *testing.T) {
	p := NewPipeline()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong payload type accepted")
		}
	}()
	p.ApplyBlock(BlockFFT, &Image{W: 1, H: 1, Pix: []float64{0}})
}

func TestBlockInDescriptions(t *testing.T) {
	for _, b := range Blocks {
		if b.In() == "?" {
			t.Errorf("block %v has no input description", b)
		}
	}
	if Block(9).In() != "?" {
		t.Error("unknown block input")
	}
}
