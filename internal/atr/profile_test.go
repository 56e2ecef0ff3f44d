package atr

import (
	"math"
	"testing"
)

func TestDefaultProfileMatchesFig6(t *testing.T) {
	p := Default()
	want := [NumBlocks]float64{0.18, 0.19, 0.32, 0.53}
	if p.BlockRefS != want {
		t.Fatalf("block times %v, want %v", p.BlockRefS, want)
	}
	if p.WholeRefS != 1.1 {
		t.Fatalf("whole time %v, want 1.1 (§4.3)", p.WholeRefS)
	}
	if p.InputKB != 10.1 {
		t.Fatalf("input %v KB, want 10.1", p.InputKB)
	}
	if p.InterKB != [NumBlocks]float64{0.6, 7.5, 7.5, 0.1} {
		t.Fatalf("intermediate payloads %v", p.InterKB)
	}
}

func TestBlockNames(t *testing.T) {
	names := map[Block]string{
		BlockDetect:   "Target Detection",
		BlockFFT:      "FFT",
		BlockIFFT:     "IFFT",
		BlockDistance: "Compute Distance",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d.String() = %q", int(b), b.String())
		}
	}
	if Block(9).String() != "Block(9)" {
		t.Error("unknown block formatting")
	}
}

func TestSpanBasics(t *testing.T) {
	s := NewSpan(BlockFFT, BlockIFFT)
	if s.Len() != 2 || !s.Contains(BlockFFT) || !s.Contains(BlockIFFT) || s.Contains(BlockDetect) || s.Contains(BlockDistance) {
		t.Fatalf("span %v misbehaves", s)
	}
	if NewSpan(BlockFFT, BlockFFT).String() != "FFT" {
		t.Error("single-block span name")
	}
	if got := s.String(); got != "FFT + IFFT" {
		t.Errorf("span name %q", got)
	}
}

func TestNewSpanValidation(t *testing.T) {
	for _, bad := range [][2]Block{{BlockIFFT, BlockFFT}, {-1, BlockFFT}, {BlockFFT, Block(4)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpan(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			NewSpan(bad[0], bad[1])
		}()
	}
}

func TestRefSecondsAmortizesFullSpan(t *testing.T) {
	p := Default()
	if got := p.RefSeconds(FullSpan); got != 1.1 {
		t.Fatalf("full span %v, want 1.1", got)
	}
	// Partial spans sum isolated block times.
	first, second := SplitAfter(BlockDetect)
	if got := p.RefSeconds(first); math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("TD span %v", got)
	}
	if got := p.RefSeconds(second); math.Abs(got-1.04) > 1e-12 {
		t.Fatalf("FFT..CD span %v, want 1.04", got)
	}
	// The isolated-block sum exceeds the amortized whole (see WholeRefS).
	var sum float64
	for _, b := range Blocks {
		sum += p.BlockRefS[b]
	}
	if sum <= p.WholeRefS {
		t.Fatalf("isolated sum %v should exceed amortized %v", sum, p.WholeRefS)
	}
}

func TestSpanPayloads(t *testing.T) {
	p := Default()
	first, second := SplitAfter(BlockDetect)
	// Scheme 1 of Fig 8: Node1 carries 10.1 in + 0.6 out = 10.7 KB,
	// Node2 carries 0.6 in + 0.1 out = 0.7 KB.
	if got := p.InKB(first) + p.OutKB(first); math.Abs(got-10.7) > 1e-12 {
		t.Fatalf("scheme 1 node1 payload %v, want 10.7", got)
	}
	if got := p.InKB(second) + p.OutKB(second); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("scheme 1 node2 payload %v, want 0.7", got)
	}
	// Schemes 2 and 3: 17.6 and 7.6 KB.
	first2, second2 := SplitAfter(BlockFFT)
	if got := p.InKB(first2) + p.OutKB(first2); math.Abs(got-17.6) > 1e-12 {
		t.Fatalf("scheme 2 node1 payload %v, want 17.6", got)
	}
	if got := p.InKB(second2) + p.OutKB(second2); math.Abs(got-7.6) > 1e-12 {
		t.Fatalf("scheme 2 node2 payload %v, want 7.6", got)
	}
}

func TestSplitAfterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SplitAfter(ComputeDistance) did not panic")
		}
	}()
	SplitAfter(BlockDistance)
}

func TestChain(t *testing.T) {
	spans := Chain(BlockDetect, BlockIFFT, BlockDistance)
	if len(spans) != 3 {
		t.Fatalf("chain length %d", len(spans))
	}
	want := []Span{
		{BlockDetect, BlockDetect},
		{BlockFFT, BlockIFFT},
		{BlockDistance, BlockDistance},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("chain[%d] = %v, want %v", i, spans[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("incomplete chain did not panic")
		}
	}()
	Chain(BlockDetect, BlockIFFT)
}

func TestMultiRefSecondsScalesPerTarget(t *testing.T) {
	p := Default()
	// Zero targets: detection still scans.
	if got := p.MultiRefSeconds(FullSpan, 0); math.Abs(got-0.18) > 1e-12 {
		t.Errorf("0 targets: %v", got)
	}
	// One target matches the isolated block sum.
	if got := p.MultiRefSeconds(FullSpan, 1); math.Abs(got-1.22) > 1e-12 {
		t.Errorf("1 target: %v", got)
	}
	// Three targets: detect once, filter thrice.
	want := 0.18 + 3*(0.19+0.32+0.53)
	if got := p.MultiRefSeconds(FullSpan, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("3 targets: %v, want %v", got, want)
	}
	// Span without detection is purely per-target.
	_, second := SplitAfter(BlockDetect)
	if got := p.MultiRefSeconds(second, 2); math.Abs(got-2*1.04) > 1e-12 {
		t.Errorf("tail span ×2: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative count accepted")
		}
	}()
	p.MultiRefSeconds(FullSpan, -1)
}
