// Package atr implements the automatic target recognition workload of the
// paper's case study, in two forms.
//
// The first form is the measured profile (the paper's Fig 6): per-block
// execution times at the 206.4 MHz reference clock and the data payload
// carried between blocks. The profile is what the distributed experiments
// consume — exactly as the paper's own analysis does.
//
// The second form is a real, runnable ATR pipeline (detect targets in a
// synthetic image by normalized cross-correlation, filter the region of
// interest through FFT → template filter → IFFT, and estimate target
// distance). It demonstrates the algorithm the profile stands for and is
// exercised by cmd/atr and the examples.
package atr

import "fmt"

// Block is one functional block of the ATR algorithm (Fig 1).
type Block int

// The four functional blocks, in pipeline order.
const (
	BlockDetect Block = iota
	BlockFFT
	BlockIFFT
	BlockDistance
)

// NumBlocks is the number of functional blocks.
const NumBlocks = 4

// Blocks lists all blocks in pipeline order.
var Blocks = []Block{BlockDetect, BlockFFT, BlockIFFT, BlockDistance}

func (b Block) String() string {
	switch b {
	case BlockDetect:
		return "Target Detection"
	case BlockFFT:
		return "FFT"
	case BlockIFFT:
		return "IFFT"
	case BlockDistance:
		return "Compute Distance"
	default:
		return fmt.Sprintf("Block(%d)", int(b))
	}
}

// Profile is the measured performance profile of the ATR algorithm on one
// Itsy node (Fig 6). Times are seconds at the 206.4 MHz reference clock;
// payloads are kilobytes on the wire.
type Profile struct {
	// BlockRefS is the execution time of each block run in isolation.
	// The paper's Fig 6: 0.18, 0.19, 0.32, 0.53 s.
	BlockRefS [NumBlocks]float64
	// WholeRefS is the measured time of the entire algorithm run as one
	// program: 1.1 s (§4.3). It is less than the sum of the isolated
	// block times (1.22 s) because whole-program execution amortizes
	// per-block dispatch and data-marshalling overhead; the baseline
	// D = 1.1 + 1.1 + 0.1 = 2.3 s is defined from this number.
	WholeRefS float64
	// InputKB is the raw image frame received from the source: 10.1 KB.
	InputKB float64
	// InterKB[b] is the payload produced by block b for its successor:
	// 0.6 KB after target detection, 7.5 KB after FFT and after IFFT.
	// InterKB[ComputeDistance] is the final result size, 0.1 KB.
	InterKB [NumBlocks]float64
}

// Default is the paper's measured profile.
func Default() Profile {
	return Profile{
		BlockRefS: [NumBlocks]float64{0.18, 0.19, 0.32, 0.53},
		WholeRefS: 1.1,
		InputKB:   10.1,
		InterKB:   [NumBlocks]float64{0.6, 7.5, 7.5, 0.1},
	}
}

// Span is a contiguous range of blocks assigned to one pipeline node.
type Span struct {
	// First and Last are inclusive block indices; First ≤ Last.
	First, Last Block
}

// NewSpan returns the span [first, last].
func NewSpan(first, last Block) Span {
	if first > last || first < 0 || last >= NumBlocks {
		panic(fmt.Sprintf("atr: bad span [%v, %v]", first, last))
	}
	return Span{first, last}
}

// FullSpan covers the whole algorithm.
var FullSpan = Span{BlockDetect, BlockDistance}

// Contains reports whether the span includes block b.
func (s Span) Contains(b Block) bool { return b >= s.First && b <= s.Last }

// Len is the number of blocks in the span.
func (s Span) Len() int { return int(s.Last-s.First) + 1 }

func (s Span) String() string {
	if s.First == s.Last {
		return s.First.String()
	}
	names := ""
	for b := s.First; b <= s.Last; b++ {
		if names != "" {
			names += " + "
		}
		names += b.String()
	}
	return names
}

// RefSeconds is the execution time of the span at the reference clock.
// The full span uses the amortized whole-program time; partial spans sum
// their isolated block times (see WholeRefS).
func (p *Profile) RefSeconds(s Span) float64 {
	if s == FullSpan {
		return p.WholeRefS
	}
	var t float64
	for b := s.First; b <= s.Last; b++ {
		t += p.BlockRefS[b]
	}
	return t
}

// InKB is the payload the span receives: the raw frame for a span starting
// at the first block, otherwise the predecessor block's output.
func (p *Profile) InKB(s Span) float64 {
	if s.First == BlockDetect {
		return p.InputKB
	}
	return p.InterKB[s.First-1]
}

// OutKB is the payload the span sends onward (the final result size for a
// span ending at the last block).
func (p *Profile) OutKB(s Span) float64 { return p.InterKB[s.Last] }

// SplitAfter partitions the full algorithm into two spans, cutting after
// block b. The paper's three two-node schemes (Fig 8) are SplitAfter(0),
// SplitAfter(1) and SplitAfter(2).
func SplitAfter(b Block) (first, second Span) {
	if b < 0 || b >= NumBlocks-1 {
		panic(fmt.Sprintf("atr: cannot split after block %v", b))
	}
	return Span{BlockDetect, b}, Span{b + 1, BlockDistance}
}

// Chain partitions the algorithm into n contiguous spans with the given
// cut points (cuts[i] is the last block of span i). It validates coverage
// and ordering.
func Chain(cuts ...Block) []Span {
	if len(cuts) == 0 || cuts[len(cuts)-1] != BlockDistance {
		panic("atr: chain must end at ComputeDistance")
	}
	spans := make([]Span, 0, len(cuts))
	first := BlockDetect
	for _, c := range cuts {
		spans = append(spans, NewSpan(first, c))
		first = c + 1
	}
	return spans
}

// MultiRefSeconds is the reference execution time of a span processing n
// targets: detection scans the frame once; every other block runs per
// target. It is the timing model behind the multi-target workload variant
// (see examples/bufferdvs).
func (p *Profile) MultiRefSeconds(s Span, n int) float64 {
	if n < 0 {
		panic("atr: negative target count")
	}
	var t float64
	for b := s.First; b <= s.Last; b++ {
		if b == BlockDetect {
			t += p.BlockRefS[b]
			continue
		}
		t += float64(n) * p.BlockRefS[b]
	}
	return t
}
