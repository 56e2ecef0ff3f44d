package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestChanSendThenRecv(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got int
	k.Spawn("r", func(p *Proc) {
		v, err := c.Recv(p)
		if err != nil {
			t.Errorf("Recv: %v", err)
		}
		got = v
	})
	k.At(1, func() { c.Send(42) })
	k.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestChanRecvBlocksUntilSend(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, "c")
	var at Time
	k.Spawn("r", func(p *Proc) {
		if _, err := c.Recv(p); err != nil {
			t.Errorf("Recv: %v", err)
		}
		at = k.Now()
	})
	k.At(7, func() { c.Send("x") })
	k.Run()
	if at != 7 {
		t.Fatalf("received at %v, want 7", at)
	}
}

func TestChanFIFOOrder(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got []int
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			c.Send(i)
		}
	})
	k.Spawn("r", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, err := c.Recv(p)
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestChanCompetingReceiversFIFO(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var winners []string
	recv := func(name string) {
		k.Spawn(name, func(p *Proc) {
			if _, err := c.Recv(p); err == nil {
				winners = append(winners, name)
			}
		})
	}
	recv("first")
	recv("second")
	k.At(1, func() { c.Send(1) })
	k.At(2, func() { c.Send(2) })
	k.Run()
	if len(winners) != 2 || winners[0] != "first" || winners[1] != "second" {
		t.Fatalf("winners = %v, want [first second]", winners)
	}
}

// TestChanInterruptedReceiver: an interrupted receiver returns
// ErrInterrupted, and passes on a value whose wake it consumed in the
// same instant, so the next receiver gets it.
func TestChanInterruptedReceiver(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var err error
	var got int
	first := k.Spawn("first", func(p *Proc) { _, err = c.Recv(p) })
	k.Spawn("second", func(p *Proc) { got, _ = c.Recv(p) })
	k.At(1, func() {
		first.Task().Interrupt()
		c.Send(5)
	})
	k.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got != 5 {
		t.Fatalf("second receiver got %d, want the passed-on 5", got)
	}
}

// Property: for any sequence of sends, a single receiver drains exactly the
// values sent, in order.
func TestPropertyChanPreservesSequence(t *testing.T) {
	f := func(vals []int) bool {
		k := NewKernel()
		c := NewChan[int](k, "c")
		var got []int
		k.At(0, func() {
			for _, v := range vals {
				c.Send(v)
			}
		})
		k.Spawn("r", func(p *Proc) {
			for range vals {
				v, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, v)
			}
		})
		k.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return c.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with multiple receivers, every sent value is delivered exactly
// once (no loss, no duplication); the receivers still blocked when the
// queue drains are unwound by shutdown.
func TestPropertyChanExactlyOnce(t *testing.T) {
	f := func(n uint8, receivers uint8) bool {
		nv := int(n%50) + 1
		nr := int(receivers%5) + 1
		k := NewKernel()
		c := NewChan[int](k, "c")
		seen := make(map[int]int)
		for i := 0; i < nr; i++ {
			k.Spawn("r", func(p *Proc) {
				for {
					v, err := c.Recv(p)
					if err != nil {
						return
					}
					seen[v]++
				}
			})
		}
		k.At(1, func() {
			for i := 0; i < nv; i++ {
				c.Send(i)
			}
		})
		k.Run()
		if len(seen) != nv || len(k.procs) != 0 {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
