package main

import (
	"container/heap"
	"math"
	"runtime"
	"time"
)

// calRef is the calibration's time on the reference host, a 2-vCPU
// Xeon VM. Timed figures are reported at that host speed: a measured
// time is multiplied by calRef over the median of the calibrations run
// beside it, raised to calElasticity. A CLI pass is scaled by the three
// calibrations run just before it, so the host speed is taken when the
// pass runs; set-up and serve times by all of the run's calibrations.
//
// The calibration is CPU-bound and cache-resident, and it speeds up and
// slows down more than dvsim does when the shared host changes state:
// across ten-run sets on the reference host, dvsim's times moved as the
// 0.7th power of the calibration's. Scaling by the full ratio
// over-corrected by up to a quarter.
const (
	calRef        = 60 * time.Millisecond
	calElasticity = 0.7
)

// calibrate runs one calibration, keeps its time and writes it as a row.
func (b *bench) calibrate() {
	t0 := time.Now()
	d := calibrate()
	b.rows.write("calibration", "calibrate", len(b.cals), t0, d, d.Seconds(), "s", opOK)
	b.cals = append(b.cals, d.Seconds())
}

// speed is the factor that converts this run's measured seconds to
// seconds at the reference host speed.
func (b *bench) speed() float64 {
	if len(b.cals) == 0 {
		b.calibrate()
	}
	return math.Pow(calRef.Seconds()/median(b.cals), calElasticity)
}

// passSpeed is the speed factor of the three latest calibrations, the
// ones processStarts runs before every CLI pass.
func (b *bench) passSpeed() float64 {
	if len(b.cals) == 0 {
		b.calibrate()
	}
	return math.Pow(calRef.Seconds()/median(b.cals[max(0, len(b.cals)-3):]), calElasticity)
}

// calibrate runs a fixed amount of host work shaped like dvsim's inner
// loop: a timed event heap, small allocations, map lookups and
// floating-point updates, in chunks, after a garbage collection so every
// calibration starts from the same heap. It returns the median chunk
// time times five, so a brief stall inside one chunk does not count.
// The work never changes with the code under test, so the ratio of a
// pass's time to the calibration time measured beside it cancels the
// host speed, which on a shared VM drifts by tens of percent over minutes.
func calibrate() time.Duration {
	runtime.GC()
	var chunks []float64
	for c := 0; c < calChunks; c++ {
		chunks = append(chunks, calibrateChunk().Seconds())
	}
	return time.Duration(5 * median(chunks) * float64(time.Second))
}

// calChunks is how many chunks a calibration runs; their median, times
// five, is the calibration time.
const calChunks = 11

func calibrateChunk() time.Duration {
	t0 := time.Now()
	var h eventHeap
	m := make(map[int]float64, 1024)
	soc := 1.0
	var keep *node
	for i := 0; i < 24_000; i++ {
		heap.Push(&h, event{t: float64((i*7919)%100_003) * 1e-3, id: i})
		if h.Len() > 4096 {
			e := heap.Pop(&h).(event)
			m[e.id&1023] += e.t
		}
		keep = &node{v: soc, next: keep}
		if i%64 == 0 {
			keep = nil
		}
		soc -= soc * 1e-6 * math.Exp(-float64(i%100)/50)
	}
	sink = soc + m[1] + float64(h.Len())
	return time.Since(t0)
}

var sink float64

type node struct {
	v    float64
	next *node
}

type event struct {
	t  float64
	id int
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; e := old[len(old)-1]; *h = old[:len(old)-1]; return e }
