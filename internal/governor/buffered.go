package governor

import (
	"fmt"
	"math"
)

// BufferedMinSpeed is the frame-buffering technique of Im et al. [4]
// (paper §2) in its offline form; Buffer is the runtime policy built on
// the same idea. Frames of work works[i] arrive every period seconds; an
// arrival buffer lets frame i finish as late as (buffer+1) periods after
// its arrival instead of one. The function returns the minimal constant
// speed meeting every such deadline under FIFO processing — lower
// (quadratically cheaper) than the per-frame worst-case speed whenever
// the workload varies.
//
// The closed form is the maximal window density: over every window of
// consecutive frames i..j, the work must fit between frame i's arrival
// and frame j's extended deadline.
func BufferedMinSpeed(works []float64, period float64, buffer int) float64 {
	if period <= 0 {
		panic(fmt.Sprintf("governor: period %v", period))
	}
	if buffer < 0 {
		panic(fmt.Sprintf("governor: buffer %v", buffer))
	}
	slack := float64(buffer+1) * period
	best := 0.0
	for i := range works {
		var sum float64
		for j := i; j < len(works); j++ {
			sum += works[j]
			window := float64(j-i)*period + slack
			if s := sum / window; s > best {
				best = s
			}
		}
	}
	return best
}

// SimulateBufferedFIFO checks BufferedMinSpeed's answer by simulation:
// it runs the stream at the given speed and reports whether every frame
// meets its extended deadline, plus the peak queue length (frames waiting
// or in service when a new frame arrives).
func SimulateBufferedFIFO(works []float64, period float64, buffer int, speed float64) (ok bool, peakQueue int) {
	if speed <= 0 {
		return len(works) == 0, 0
	}
	finish := math.Inf(-1)
	type done struct{ at float64 }
	var finished []done
	queue := 0
	ok = true
	for i, w := range works {
		arrive := float64(i) * period
		// Count frames still unfinished at this arrival.
		queue = 0
		for j := 0; j < i; j++ {
			if finished[j].at > arrive {
				queue++
			}
		}
		if queue+1 > peakQueue {
			peakQueue = queue + 1
		}
		start := math.Max(arrive, finish)
		finish = start + w/speed
		finished = append(finished, done{finish})
		if finish > arrive+float64(buffer+1)*period+1e-9 {
			ok = false
		}
	}
	return ok, peakQueue
}
