package atr

import "fmt"

// Multi-target execution: the paper's experiments process one target per
// frame, but "a multi-frame, multi-target version of the algorithm is
// also available" (§3). These helpers run any block span over all targets
// of a frame, carrying per-target intermediates as one payload.

// MultiPayload carries the per-target intermediates of one frame between
// distributed stages.
type MultiPayload struct {
	// Items holds one intermediate per detected target; the element type
	// matches the single-target payload of the producing block.
	Items []any
}

// WireBytes sums the encoded size of all items (plus a small header).
func (m *MultiPayload) WireBytes() (int, error) {
	total := 2 // item count
	for _, it := range m.Items {
		b, err := Encode(it)
		if err != nil {
			return 0, err
		}
		total += len(b)
	}
	return total, nil
}

// ApplySpanMulti runs the span on up to maxTargets targets. A span
// containing the detection block consumes a frame (*Image) and fans out;
// later spans consume the *MultiPayload produced upstream and map over
// its items. The final span yields a *MultiPayload of *Result.
func (p *Pipeline) ApplySpanMulti(s Span, in any, maxTargets int) any {
	if in == nil {
		return nil
	}
	var items []any
	first := s.First
	if s.Contains(BlockDetect) {
		frame, ok := in.(*Image)
		if !ok {
			panic(fmt.Sprintf("atr: multi span %v expects *atr.Image, got %T", s, in))
		}
		saved := p.Detector.MaxTargets
		p.Detector.MaxTargets = maxTargets
		dets := p.Stage1Detect(frame)
		p.Detector.MaxTargets = saved
		for i := range dets {
			d := dets[i]
			items = append(items, &d)
		}
		first = BlockDetect + 1
	} else {
		mp, ok := in.(*MultiPayload)
		if !ok {
			panic(fmt.Sprintf("atr: multi span %v expects *atr.MultiPayload, got %T", s, in))
		}
		items = mp.Items
	}
	if first > s.Last {
		return &MultiPayload{Items: items}
	}
	out := make([]any, 0, len(items))
	rest := Span{First: first, Last: s.Last}
	for _, it := range items {
		if v := p.ApplySpan(rest, it); v != nil {
			out = append(out, v)
		}
	}
	return &MultiPayload{Items: out}
}

// Results extracts the final results from a completed multi-target
// payload.
func (m *MultiPayload) Results() []Result {
	var out []Result
	for _, it := range m.Items {
		if r, ok := it.(*Result); ok {
			out = append(out, *r)
		}
	}
	return out
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
