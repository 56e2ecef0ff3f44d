// Package nakedgofix exercises the nakedgo analyzer: outside
// internal/sim, a raw goroutine races the kernel's one-event-at-a-time
// schedule; all simulated concurrency must be kernel events and
// sim.Task state machines.
package nakedgofix

import "sync"

func fanOut(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func() { // want `raw go statement`
			defer wg.Done()
			w()
		}()
	}
	wg.Wait()
}

// sanctioned shows the escape hatch for machinery that parallelizes
// across independent simulations rather than inside one.
func sanctioned(run func()) {
	done := make(chan struct{})
	//lint:allow nakedgo fixture demonstrates a justified pool outside the kernel's jurisdiction
	go func() {
		defer close(done)
		run()
	}()
	<-done
}
