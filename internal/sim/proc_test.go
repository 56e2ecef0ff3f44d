package sim

import "testing"

func TestProcRunsAndWaits(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Spawn("worker", func(p *Proc) {
		marks = append(marks, k.Now())
		if err := p.Wait(2); err != nil {
			t.Errorf("Wait: %v", err)
		}
		marks = append(marks, k.Now())
		if err := p.Wait(3); err != nil {
			t.Errorf("Wait: %v", err)
		}
		marks = append(marks, k.Now())
	})
	k.Run()
	want := []Time{0, 2, 5}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var order []string
	mk := func(name string, d Duration) {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				if p.Wait(d) != nil {
					return
				}
				order = append(order, name)
			}
		})
	}
	mk("a", 1)
	mk("b", 1)
	k.Run()
	// Same wait durations, a spawned first, so a always precedes b at each
	// instant.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestShutdownUnblocksStrandedProc: a drained kernel unwinds a process
// parked forever, so its goroutine exits and no process is left live.
func TestShutdownUnblocksStrandedProc(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	var unwound bool
	k.Spawn("stranded", func(p *Proc) {
		defer func() {
			r := recover()
			_, unwound = r.(killed)
			panic(r)
		}()
		c.Recv(p) // blocks forever; kernel shutdown must unwind it
		t.Error("Recv returned without shutdown")
	})
	k.At(1, func() {})
	k.Run()
	if !unwound {
		t.Fatal("the stranded process was not unwound")
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs leaked after shutdown", len(k.procs))
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := NewKernel()
	var recovered bool
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
				// Swallow: the proc finishes normally after recovery.
			}
		}()
		p.Wait(-1)
	})
	k.Run()
	if !recovered {
		t.Fatal("negative Wait did not panic")
	}
}

func TestKernelStats(t *testing.T) {
	k := NewKernel()
	if k.Scheduled() != 0 || k.Fired() != 0 || k.QueueLen() != 0 || k.MaxQueueLen() != 0 {
		t.Fatal("fresh kernel has non-zero stats")
	}
	for i := 0; i < 3; i++ {
		k.At(Time(i+1), func() {})
	}
	if k.Scheduled() != 3 {
		t.Fatalf("Scheduled = %d, want 3", k.Scheduled())
	}
	if k.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", k.QueueLen())
	}
	k.Run()
	if k.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", k.Fired())
	}
	if k.QueueLen() != 0 {
		t.Fatalf("QueueLen after run = %d, want 0", k.QueueLen())
	}
	if k.MaxQueueLen() < 3 {
		t.Fatalf("MaxQueueLen = %d, want >= 3", k.MaxQueueLen())
	}
}

func TestManyProcsAllComplete(t *testing.T) {
	k := NewKernel()
	const n = 100
	doneCount := 0
	for i := 0; i < n; i++ {
		d := Duration(i) / 10
		k.Spawn("w", func(p *Proc) {
			if p.Wait(d) == nil {
				doneCount++
			}
		})
	}
	k.Run()
	if doneCount != n {
		t.Fatalf("%d of %d procs completed", doneCount, n)
	}
}
