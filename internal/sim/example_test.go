package sim_test

import (
	"fmt"

	"dvsim/internal/sim"
)

// Events fire in time order; events at the same instant fire in the
// order they were scheduled, so every run is reproducible.
func ExampleKernel() {
	k := sim.NewKernel()
	k.At(2, func() { fmt.Println("t=2 first scheduled") })
	k.At(1, func() { fmt.Println("t=1") })
	k.At(2, func() { fmt.Println("t=2 second scheduled") })
	k.Run()
	// Output:
	// t=1
	// t=2 first scheduled
	// t=2 second scheduled
}

// sleeper is a callback state machine on a Task, the way the engine's
// nodes and host run: each Resume ends one blocking episode and opens
// the next, or exits.
type sleeper struct {
	k    *sim.Kernel
	task sim.Task
	step int
}

func (s *sleeper) Resume(err error) {
	fmt.Printf("resumed at t=%v (err %v)\n", s.k.Now(), err)
	switch s.step {
	case 0: // started: wait two seconds
		s.task.WaitUntil(s.k.Now() + 2)
	case 1: // block until a signal source wakes this episode
		seq := s.task.Block(sim.Infinity)
		s.k.At(4.5, func() { s.task.Wake(seq, nil) })
	default:
		s.task.Exit()
	}
	s.step++
}

// A Task waits, blocks on a wake and exits, resumed by the kernel at
// each step.
func ExampleTask() {
	k := sim.NewKernel()
	s := &sleeper{k: k}
	s.task.Init(k, s)
	s.task.Start(1)
	k.Run()
	// Output:
	// resumed at t=1 (err <nil>)
	// resumed at t=3 (err <nil>)
	// resumed at t=4.5 (err <nil>)
}
