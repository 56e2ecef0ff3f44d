package core

import (
	"fmt"
	"sort"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
)

// Deployment planning: given a target battery life, search the space the
// paper explores — pipeline width, block partition, DVS during I/O, node
// rotation — and return the cheapest (fewest-node) configuration that
// meets the target. This is the "what would I actually deploy"
// entry point a downstream user of the case study wants.

// Candidate is one evaluated configuration.
type Candidate struct {
	Name           string
	Stages         []StageConfig
	RotationPeriod int
	Outcome        Outcome
}

// Nodes returns the candidate's pipeline width.
func (c Candidate) Nodes() int { return len(c.Stages) }

// enumerateCandidates builds every configuration up to maxNodes wide:
// all contiguous block partitions, with DVS-during-I/O always on (it
// never hurts) and rotation off/on.
func enumerateCandidates(p Params, maxNodes int) []Candidate {
	var out []Candidate
	add := func(name string, stages []StageConfig, rotation int) {
		out = append(out, Candidate{Name: name, Stages: stages, RotationPeriod: rotation})
	}

	// Single node: baseline and DVS during I/O.
	add("1-node baseline", []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint}}, 0)
	add("1-node dvs-io", []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MinPoint}}, 0)

	// Multi-node: every composition of the block chain into n contiguous
	// spans.
	for n := 2; n <= maxNodes && n <= atr.NumBlocks; n++ {
		for _, cuts := range compositions(atr.NumBlocks, n) {
			pt := p.Plan(atr.Chain(cuts...), false)
			if !pt.Feasible {
				continue
			}
			stages := StagesFromPartition(pt, true)
			name := fmt.Sprintf("%d-node %v", n, cuts)
			add(name+" static", stages, 0)
			add(name+" rotation", stages, p.RotationPeriod)
		}
	}
	return out
}

// compositions enumerates the ways to split blocks 0..total-1 into n
// contiguous spans, returned as cut lists (last block of each span).
func compositions(total, n int) [][]atr.Block {
	var out [][]atr.Block
	var rec func(start int, cuts []atr.Block)
	rec = func(start int, cuts []atr.Block) {
		remainingSpans := n - len(cuts)
		if remainingSpans == 1 {
			final := append(append([]atr.Block{}, cuts...), atr.Block(total-1))
			out = append(out, final)
			return
		}
		// The next span must leave at least remainingSpans-1 blocks.
		for last := start; last <= total-remainingSpans; last++ {
			rec(last+1, append(cuts, atr.Block(last)))
		}
	}
	rec(0, nil)
	return out
}

// PlanForLifetime evaluates every candidate configuration (in parallel)
// and returns the one meeting the target battery life with the fewest
// nodes, breaking ties by longer life. If nothing reaches the target the
// best-effort candidate is returned along with an error.
func PlanForLifetime(p Params, targetH float64, maxNodes, workers int) (Candidate, error) {
	if maxNodes < 1 {
		return Candidate{}, fmt.Errorf("core: maxNodes %d", maxNodes)
	}
	evaluated := enumerateCandidates(p, maxNodes)
	specs := make([]Spec, len(evaluated))
	for i, c := range evaluated {
		specs[i] = Spec{Stages: c.Stages, Label: c.Name, Params: p}
		specs[i].Params.RotationPeriod = c.RotationPeriod
	}
	outs, err := simulateAll(specs, workers)
	if err != nil {
		return Candidate{}, err
	}
	for i := range evaluated {
		evaluated[i].Outcome = outs[i]
	}
	sort.SliceStable(evaluated, func(i, j int) bool {
		a, b := evaluated[i], evaluated[j]
		if a.Nodes() != b.Nodes() {
			return a.Nodes() < b.Nodes()
		}
		return a.Outcome.BatteryLifeH > b.Outcome.BatteryLifeH
	})
	for _, c := range evaluated {
		if c.Outcome.BatteryLifeH >= targetH {
			return c, nil
		}
	}
	// Best effort: the longest-lived overall.
	best := evaluated[0]
	for _, c := range evaluated {
		if c.Outcome.BatteryLifeH > best.Outcome.BatteryLifeH {
			best = c
		}
	}
	return best, fmt.Errorf("core: no configuration up to %d nodes reaches %.1f h (best: %s at %.2f h)",
		maxNodes, targetH, best.Name, best.Outcome.BatteryLifeH)
}
