package metrics

import (
	"fmt"

	"dvsim/internal/sim"
)

// SamplePoint is one sampled value with the simulated time it was taken.
type SamplePoint struct {
	T float64
	V float64
}

// Sampler periodically evaluates a probe function on the simulation
// clock and accumulates the resulting time series. Samplers are
// simulation processes in the event-scheduling sense: each tick is a
// kernel event, so samples interleave deterministically with the rest
// of the run.
//
// A live sampler keeps the kernel's event queue non-empty; run
// harnesses must call Stop (or Registry.StopSamplers) when the
// simulation's own stop condition triggers, exactly like any other
// self-rescheduling watchdog.
type Sampler struct {
	key    Key
	period sim.Duration
	fn     func() float64
	series []SamplePoint
	k      *sim.Kernel
	// ev is the reusable tick event: each tick re-targets it with
	// Reschedule rather than allocating a fresh event per period.
	ev      sim.Event
	stopped bool
}

// Sample registers a sampler for (name, node) that records fn() now and
// then every period seconds of simulated time. On a nil registry it
// returns a nil, no-op sampler.
func (r *Registry) Sample(name, node string, period sim.Duration, fn func() float64) *Sampler {
	if r == nil {
		return nil
	}
	if period <= 0 {
		panic(fmt.Sprintf("metrics: sampler %v period %v", Key{name, node}, period))
	}
	s := &Sampler{key: Key{name, node}, period: period, fn: fn, k: r.k}
	r.samplers = append(r.samplers, s)
	s.ev.Bind(s.tick)
	r.k.Reschedule(&s.ev, r.k.Now())
	return s
}

// tick takes one sample and schedules the next.
func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.series = append(s.series, SamplePoint{T: float64(s.k.Now()), V: s.fn()})
	s.k.Reschedule(&s.ev, s.k.Now()+sim.Time(s.period))
}

// Stop takes a final sample at the present instant (so the series
// always covers the end of the run) and cancels future ticks. Stopping
// a stopped or nil sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil || s.stopped {
		return
	}
	s.k.Cancel(&s.ev)
	if n := len(s.series); n == 0 || s.series[n-1].T < float64(s.k.Now()) {
		s.series = append(s.series, SamplePoint{T: float64(s.k.Now()), V: s.fn()})
	}
	s.stopped = true
}

// StopSamplers stops every registered sampler. Call it from the run's
// stop condition so the samplers do not keep the event queue alive.
func (r *Registry) StopSamplers() {
	if r == nil {
		return
	}
	for _, s := range r.samplers {
		s.Stop()
	}
}
