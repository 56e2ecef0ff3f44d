package battery

import (
	"fmt"
	"math"
	"sort"
)

// TwoWell is a constrained two-well battery: a piecewise-linear kinetic
// model that reproduces all four of the paper's single-node anchor
// lifetimes simultaneously, which no quasi-linear model (Ideal, Peukert,
// or classical KiBaM — see cmd/calibrate) can do.
//
// State:
//
//   - Total charge y, drained at the external current I. Running out of
//     y is ordinary capacity exhaustion.
//   - An availability well a ≤ AvailMAh of "deliverable-now" charge.
//     Under heavy load (I > FlowMA) the bound charge cannot diffuse fast
//     enough, and the well drains at I − FlowMA: the rate-capacity
//     effect. Under light load (I < FlowMA) the well refills at
//     min(RecoverMA, FlowMA − I): the recovery effect, which in lithium
//     cells is far slower than the forced diffusion under load.
//
// The battery is empty when either y or a reaches zero. FlowMA acts as a
// sustainability cliff: the Itsy's pack sits just above the ATR
// computation current at full clock (≈130 mA) draining the well in 3.4 h
// (experiment 0A), while loads below ≈107 mA deliver the full capacity.
// Every dynamic is piecewise-linear, so per-segment updates are exact.
type TwoWell struct {
	// CapacityMAh is the total charge delivered at sustainable rates.
	CapacityMAh float64
	// AvailMAh is the availability well size (apparent charge).
	AvailMAh float64
	// FlowMA is the maximum sustainable diffusion flow.
	FlowMA float64
	// RecoverMA is the maximum well refill rate at rest.
	RecoverMA float64

	y            float64 // remaining total charge, mA·s
	a            float64 // well level, mA·s
	deliveredMAs float64
	empty        bool
}

// TwoWellParams is a candidate TwoWell parameterization.
type TwoWellParams struct {
	CapacityMAh float64
	AvailMAh    float64
	FlowMA      float64
	RecoverMA   float64
}

// New instantiates a battery with these parameters.
func (p TwoWellParams) New() *TwoWell {
	return NewTwoWell(p.CapacityMAh, p.AvailMAh, p.FlowMA, p.RecoverMA)
}

func (p TwoWellParams) String() string {
	return fmt.Sprintf("C=%.1f mAh A=%.2f mAh F=%.2f mA R=%.2f mA",
		p.CapacityMAh, p.AvailMAh, p.FlowMA, p.RecoverMA)
}

// NewTwoWell returns a full, rested battery.
func NewTwoWell(capacityMAh, availMAh, flowMA, recoverMA float64) *TwoWell {
	if capacityMAh <= 0 || availMAh <= 0 || availMAh > capacityMAh || flowMA <= 0 || recoverMA < 0 {
		panic(fmt.Sprintf("battery: bad TwoWell params C=%v A=%v F=%v R=%v",
			capacityMAh, availMAh, flowMA, recoverMA))
	}
	b := &TwoWell{CapacityMAh: capacityMAh, AvailMAh: availMAh, FlowMA: flowMA, RecoverMA: recoverMA}
	b.Reset()
	return b
}

// Name implements Model.
func (b *TwoWell) Name() string { return "twowell" }

// wellRate is da/dt under constant draw I (ignoring the a ≤ AvailMAh cap).
func (b *TwoWell) wellRate(currentMA float64) float64 {
	if currentMA >= b.FlowMA {
		return -(currentMA - b.FlowMA)
	}
	return min(b.RecoverMA, b.FlowMA-currentMA)
}

// Drain implements Model.
func (b *TwoWell) Drain(currentMA, dt float64) float64 {
	checkDrainArgs(currentMA, dt)
	if b.empty {
		return 0
	}
	t := dt
	// Total-charge exhaustion.
	if currentMA > 0 {
		if tTot := b.y / currentMA; tTot < t {
			t = tTot
		}
	}
	// Well exhaustion.
	r := b.wellRate(currentMA)
	if r < 0 {
		if tWell := b.a / -r; tWell < t {
			t = tWell
		}
	}
	// Advance.
	b.y -= currentMA * t
	if r >= 0 {
		b.a = min(b.a+r*t, b.AvailMAh*mAhToMAs)
	} else {
		b.a += r * t
	}
	b.a = min(b.a, b.y) // the well never holds more than remains in total
	b.deliveredMAs += currentMA * t
	if t < dt || b.y <= 1e-9 || b.a <= 1e-9 {
		b.empty = true
		if b.y < 0 {
			b.y = 0
		}
		if b.a < 0 {
			b.a = 0
		}
	}
	return t
}

// TimeToEmpty implements Model.
func (b *TwoWell) TimeToEmpty(currentMA float64) float64 {
	if b.empty {
		return 0
	}
	t := math.Inf(1)
	if currentMA > 0 {
		t = b.y / currentMA
	}
	if r := b.wellRate(currentMA); r < 0 {
		t = min(t, b.a/-r)
	}
	return t
}

// Empty implements Model.
func (b *TwoWell) Empty() bool { return b.empty }

// StateOfCharge implements Model (total-charge basis).
func (b *TwoWell) StateOfCharge() float64 {
	return clamp01(b.y / (b.CapacityMAh * mAhToMAs))
}

// AvailableFraction is the well level relative to full, in [0, 1].
func (b *TwoWell) AvailableFraction() float64 {
	return clamp01(b.a / (b.AvailMAh * mAhToMAs))
}

// DeliveredMAh implements Model.
func (b *TwoWell) DeliveredMAh() float64 { return b.deliveredMAs / mAhToMAs }

// Reset implements Model.
func (b *TwoWell) Reset() {
	b.y = b.CapacityMAh * mAhToMAs
	b.a = b.AvailMAh * mAhToMAs
	b.deliveredMAs = 0
	b.empty = false
}

// SolveTwoWell derives TwoWell parameters in closed form from four
// anchors playing the roles of the paper's calibration experiments:
//
//	constLo  — constant load below the flow cliff; dies by total charge
//	           (0B) and pins CapacityMAh.
//	constHi  — constant load above the cliff; dies by well exhaustion
//	           (0A).
//	cycleHi  — a cycle whose every segment exceeds the cliff (1); with
//	           constHi it pins FlowMA and AvailMAh.
//	cycleLo  — a cycle mixing above-cliff and below-cliff segments (1A);
//	           pins RecoverMA.
//
// ok is false when the resulting parameters are inconsistent with the
// assumed death modes (e.g. the solved flow does not separate the loads).
func SolveTwoWell(constLo, constHi, cycleHi, cycleLo Anchor) (TwoWellParams, bool) {
	mean := CycleMeanMA
	cycleT := func(c []Segment) float64 {
		var t float64
		for _, s := range c {
			t += s.Dt
		}
		return t
	}

	var p TwoWellParams
	p.CapacityMAh = constLo.TargetS * mean(constLo.Cycle) / mAhToMAs

	tHi, tCy := constHi.TargetS, cycleHi.TargetS
	iHi, iCy := mean(constHi.Cycle), mean(cycleHi.Cycle)
	//lint:allow floateq degenerate-calibration guard: both are stored anchor targets, and only exact equality makes the division below singular
	if tCy == tHi {
		return p, false
	}
	p.FlowMA = (tCy*iCy - tHi*iHi) / (tCy - tHi)
	p.AvailMAh = tHi * (iHi - p.FlowMA) / mAhToMAs

	// Death-mode consistency for the first three anchors.
	if p.FlowMA <= mean(constLo.Cycle) || p.FlowMA >= iHi || p.AvailMAh <= 0 || p.AvailMAh > p.CapacityMAh {
		return p, false
	}
	for _, s := range cycleHi.Cycle {
		if s.CurrentMA <= p.FlowMA {
			return p, false // cycleHi must stay above the cliff throughout
		}
	}

	// RecoverMA from cycleLo: per-cycle well drain must equal
	// AvailMAh·cycleT/target.
	var dHi, tLo, minHeadroom float64
	minHeadroom = math.Inf(1)
	for _, s := range cycleLo.Cycle {
		if s.CurrentMA > p.FlowMA {
			dHi += s.Dt * (s.CurrentMA - p.FlowMA)
		} else {
			tLo += s.Dt
			if h := p.FlowMA - s.CurrentMA; h < minHeadroom {
				minHeadroom = h
			}
		}
	}
	if tLo == 0 {
		return p, false
	}
	need := p.AvailMAh * mAhToMAs * cycleT(cycleLo.Cycle) / cycleLo.TargetS
	p.RecoverMA = (dHi - need) / tLo
	if p.RecoverMA < 0 || p.RecoverMA > minHeadroom {
		return p, false
	}
	return p, true
}

// FitTwoWell searches for TwoWell parameters minimizing the squared
// log-lifetime loss over the anchors, with the same deterministic
// grid-plus-refinement strategy as FitKiBaM.
func FitTwoWell(anchors []Anchor) (TwoWellParams, FitResult) {
	type dim struct {
		lo, hi float64
		n      int
	}
	dims := []dim{
		{300, 2000, 12}, // CapacityMAh
		{10, 400, 12},   // AvailMAh
		{40, 135, 12},   // FlowMA
		{0, 60, 12},     // RecoverMA
	}
	evalP := func(v [4]float64) (FitResult, bool) {
		if v[0] <= 0 || v[1] <= 0 || v[1] > v[0] || v[2] <= 0 || v[3] < 0 {
			return FitResult{Loss: math.Inf(1)}, false
		}
		p := TwoWellParams{CapacityMAh: v[0], AvailMAh: v[1], FlowMA: v[2], RecoverMA: v[3]}
		res := FitResult{Lifetimes: make([]float64, len(anchors))}
		for i, a := range anchors {
			t := Lifetime(p.New(), a.Cycle)
			res.Lifetimes[i] = t
			if math.IsInf(t, 1) || t <= 0 {
				res.Loss = math.Inf(1)
				return res, false
			}
			lr := math.Log(t / a.TargetS)
			res.Loss += lr * lr
		}
		return res, true
	}

	// Coarse grid, keeping the best few basins for refinement: the loss
	// surface has near-degenerate valleys (e.g. an all-above-cliff fit),
	// so refining only the single best coarse point can strand the
	// search.
	type cand struct {
		v [4]float64
		r FitResult
	}
	var top []cand
	consider := func(v [4]float64) {
		r, ok := evalP(v)
		if !ok {
			return
		}
		top = append(top, cand{v, r})
		sort.Slice(top, func(i, j int) bool { return top[i].r.Loss < top[j].r.Loss })
		if len(top) > 6 {
			top = top[:6]
		}
	}
	var g [4][]float64
	for d, dm := range dims {
		for i := 0; i < dm.n; i++ {
			g[d] = append(g[d], dm.lo+(dm.hi-dm.lo)*float64(i)/float64(dm.n-1))
		}
	}
	for _, a := range g[0] {
		for _, b := range g[1] {
			for _, c := range g[2] {
				for _, d := range g[3] {
					consider([4]float64{a, b, c, d})
				}
			}
		}
	}

	best := FitResult{Loss: math.Inf(1)}
	bestV := [4]float64{}
	for _, seed := range top {
		curV, cur := seed.v, seed.r
		try := func(v [4]float64) {
			if r, ok := evalP(v); ok && r.Loss < cur.Loss {
				cur = r
				curV = v
			}
		}
		for _, s := range []float64{0.3, 0.15, 0.07, 0.03, 0.015, 0.007, 0.003, 0.0015, 0.0007, 0.0003} {
			for pass := 0; pass < 3; pass++ {
				for d := 0; d < 4; d++ {
					at := curV
					span := s * (dims[d].hi - dims[d].lo)
					for i := -3; i <= 3; i++ {
						v := at
						v[d] = at[d] + span*float64(i)/3
						if v[d] < 0 {
							v[d] = 0
						}
						try(v)
					}
				}
			}
		}
		if cur.Loss < best.Loss {
			best = cur
			bestV = curV
		}
	}
	return TwoWellParams{CapacityMAh: bestV[0], AvailMAh: bestV[1], FlowMA: bestV[2], RecoverMA: bestV[3]}, best
}
