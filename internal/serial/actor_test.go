package serial

import "dvsim/internal/sim"

// actor is a test endpoint driven the way node/loop.go drives a node: a
// callback state machine on a sim.Task that runs a script of steps one
// episode at a time, feeding each resume of its task to the wait, Tx or
// Rx in progress.
type actor struct {
	k     *sim.Kernel
	task  sim.Task
	tx    Tx
	rx    Rx
	steps []step
	cur   step
}

// stepKind is what a step does.
type stepKind uint8

const (
	waitStep stepKind = iota
	sendStep
	recvStep
)

// step is one action of an actor's script: a wait of d, a send of msg
// from pt to dst, or a receive at pt. sent and got, when set, receive
// the outcome of a send or a receive.
type step struct {
	kind    stepKind
	d       sim.Duration
	pt, dst *Port
	msg     Message
	txo     TxOpts
	rp      *RetryPolicy
	rxo     RxOpts
	sent    func(err error)
	got     func(m Message, err error)
}

func wait(d sim.Duration) step { return step{kind: waitStep, d: d} }

func send(pt, dst *Port, msg Message, opts TxOpts, sent func(error)) step {
	return step{kind: sendStep, pt: pt, dst: dst, msg: msg, txo: opts, sent: sent}
}

// sendReliable is send with bounded retransmission under rp.
func sendReliable(pt, dst *Port, msg Message, opts TxOpts, rp RetryPolicy, sent func(error)) step {
	s := send(pt, dst, msg, opts, sent)
	s.rp = &rp
	return s
}

func recv(pt *Port, opts RxOpts, got func(Message, error)) step {
	return step{kind: recvStep, pt: pt, rxo: opts, got: got}
}

// run starts an actor at absolute time at that performs steps in order,
// then exits.
func run(k *sim.Kernel, at sim.Time, steps ...step) *actor {
	a := &actor{k: k, steps: steps}
	a.task.Init(k, a)
	a.task.Start(at)
	return a
}

// Resume continues the step in progress; the start event and the end
// of a wait go straight on to the next step.
func (a *actor) Resume(err error) {
	switch a.cur.kind {
	case sendStep:
		done, err := a.tx.Step(err)
		if !done {
			return
		}
		a.sent(err)
	case recvStep:
		done, msg, err := a.rx.Step(err)
		if !done {
			return
		}
		a.got(msg, err)
	}
	a.next()
}

// next starts steps until one blocks, or exits when the script is done.
func (a *actor) next() {
	for len(a.steps) > 0 {
		a.cur, a.steps = a.steps[0], a.steps[1:]
		switch s := &a.cur; s.kind {
		case waitStep:
			a.task.WaitUntil(a.k.Now() + s.d)
			return
		case sendStep:
			var done bool
			var err error
			if s.rp != nil {
				done, err = a.tx.SendReliable(&a.task, s.pt, s.dst, s.msg, s.txo, *s.rp)
			} else {
				done, err = a.tx.Send(&a.task, s.pt, s.dst, s.msg, s.txo)
			}
			if !done {
				return
			}
			a.sent(err)
		case recvStep:
			done, msg, err := a.rx.Recv(&a.task, s.pt, s.rxo)
			if !done {
				return
			}
			a.got(msg, err)
		}
	}
	a.cur = step{}
	a.task.Exit()
}

func (a *actor) sent(err error) {
	if a.cur.sent != nil {
		a.cur.sent(err)
	}
}

func (a *actor) got(msg Message, err error) {
	if a.cur.got != nil {
		a.cur.got(msg, err)
	}
}
