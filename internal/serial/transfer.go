package serial

import (
	"errors"

	"dvsim/internal/sim"
)

// The transfer state machines. A Tx or Rx runs on its owner's task: it
// opens the task's blocking episodes itself and is resumed through the
// owner, which passes every Resume of the task to Step while a transfer
// is in progress. Send, SendReliable, Recv and Step report done once
// the transfer has ended; until then the owner must not open another
// episode on the task.

// errWithdrawn wakes a receive whose just-accepted offer the sender
// withdrew in the same instant.
var errWithdrawn = errors.New("serial: offer withdrawn")

// txState is where a Tx is blocked.
type txState uint8

const (
	txIdle    txState = iota
	txAccept          // offered, waiting for the receiver to accept
	txWire            // accepted, the wire time running
	txBackoff         // a faulted attempt's retransmit backoff
)

// Tx is one sender's transfer: a send with optional bounded
// retransmission (see SendReliable). The zero value is ready to use;
// a Tx is reusable once done.
type Tx struct {
	task    *sim.Task
	pt, dst *Port
	opts    TxOpts
	rp      RetryPolicy
	// reliable selects SendReliable's retry loop; tries counts the
	// transmissions so far.
	reliable bool
	tries    int
	state    txState
	verdict  FaultVerdict
	dur      sim.Duration
	startup  float64
	of       offer
}

// Send starts delivering msg from pt to dst on task: the offer waits
// until the receiver accepts (or opts.Deadline passes), then for the
// transaction time. The error is non-nil if the send timed out, was
// interrupted (e.g. by battery death) or faulted on the wire.
func (tx *Tx) Send(task *sim.Task, pt, dst *Port, msg Message, opts TxOpts) (done bool, err error) {
	tx.begin(task, pt, dst, &msg, opts)
	tx.rp, tx.reliable = RetryPolicy{}, false
	return tx.attempt()
}

// SendReliable is Send with bounded retransmission: a transfer that
// fails with a wire fault (ErrDropped / ErrGarbled) is retried after an
// exponential backoff, up to rp.MaxAttempts transmissions in total.
// Non-fault errors (timeout, interruption) end it at once; a spent
// budget ends it with an error wrapping ErrRetriesExhausted. Each
// attempt pays full wire time and honours opts.Deadline independently.
func (tx *Tx) SendReliable(task *sim.Task, pt, dst *Port, msg Message, opts TxOpts, rp RetryPolicy) (done bool, err error) {
	tx.begin(task, pt, dst, &msg, opts)
	tx.rp, tx.reliable = rp, true
	return tx.attempt()
}

// begin resets the transfer in place for a new send of msg. Assigning a
// whole Tx literal would build it in a temporary and copy all of it on
// every transfer; attempt resets the rest of the offer.
func (tx *Tx) begin(task *sim.Task, pt, dst *Port, msg *Message, opts TxOpts) {
	tx.task, tx.pt, tx.dst, tx.opts = task, pt, dst, opts
	tx.tries, tx.state, tx.verdict, tx.dur, tx.startup = 1, txIdle, FaultNone, 0, 0
	tx.of.msg = *msg
}

// Step continues the transfer after its task resumed with err.
func (tx *Tx) Step(err error) (done bool, res error) {
	switch tx.state {
	case txAccept:
		if err != nil {
			tx.of.waiting = false
			return tx.withdraw(err)
		}
		return tx.accepted()
	case txWire:
		if err != nil {
			// Sender died mid-transfer; the receiver never sees completion.
			return tx.end(err)
		}
		return tx.wired()
	case txBackoff:
		if err != nil {
			return tx.end(err)
		}
		tx.tries++
		return tx.attempt()
	}
	panic("serial: Step on an idle transfer")
}

// attempt offers the offer's message at the destination and waits for
// the accept. The offer is reset in place, its message kept.
func (tx *Tx) attempt() (bool, error) {
	deadline := tx.opts.Deadline
	if deadline == 0 {
		deadline = sim.Infinity
	}
	of, dst := &tx.of, tx.dst
	of.queued, of.arrival, of.sender, of.seq, of.waiting, of.rx = false, 0, nil, 0, false, nil
	of.msg.From = tx.pt.name
	dst.push(of)
	if q := dst.Pending(); q > dst.stats.MaxPending {
		dst.stats.MaxPending = q
	}
	dst.met().pendingDepth.Set(float64(dst.Pending()))
	dst.arrive()
	if deadline <= tx.pt.net.k.Now() {
		return tx.withdraw(sim.ErrTimeout)
	}
	of.sender, of.seq, of.waiting = tx.task, tx.task.Block(deadline), true
	tx.state = txAccept
	return false, nil
}

// withdraw abandons an offer nobody accepted in time: a late accept must
// be ignored, and a receive that took it in this very instant is told
// the sender is gone.
func (tx *Tx) withdraw(err error) (bool, error) {
	of := &tx.of
	if of.queued {
		tx.dst.unqueue(of)
	}
	if r := of.rx; r != nil && r.of == of {
		r.wake(errWithdrawn)
	}
	if errors.Is(err, sim.ErrTimeout) {
		tx.pt.stats.TxTimeouts++
		tx.pt.met().txTimeouts.Inc()
	}
	return tx.result(err)
}

// accepted starts the wire time. The fault verdict is drawn at the
// instant the line goes active; either way the wire time (and both
// sides' energy) is fully spent.
func (tx *Tx) accepted() (bool, error) {
	if tx.opts.OnStart != nil {
		tx.opts.OnStart()
	}
	now := tx.pt.net.k.Now()
	msg, lp := &tx.of.msg, tx.pt.net.Params
	tx.verdict = FaultNone
	if f := tx.pt.net.Fault; f != nil {
		tx.verdict = f.Transfer(now, tx.pt.name, tx.dst.name, *msg)
	}
	tx.dur = sim.Duration(lp.TxTime(msg.KB))
	tx.startup = 0
	if msg.KB > 0 {
		tx.startup = lp.StartupS
	}
	if msg.Kind == KindAck {
		tx.dur = sim.Duration(lp.AckTime())
		tx.startup = lp.AckTime()
	}
	tx.task.WaitUntil(now + tx.dur)
	tx.state = txWire
	return false, nil
}

// wired completes the transaction at the end of its wire time.
func (tx *Tx) wired() (bool, error) {
	pt, dst, net := tx.pt, tx.dst, tx.pt.net
	msg := tx.of.msg
	if tx.verdict != FaultNone {
		net.faulted++
		pt.accountTxFault(tx.verdict)
		tx.of.done(tx.verdict)
		if tx.verdict == FaultGarble {
			return tx.result(ErrGarbled)
		}
		return tx.result(ErrDropped)
	}
	net.transfers++
	net.kbMoved += msg.KB
	pt.accountTx(msg, tx.startup)
	dst.accountRx(msg)
	if f := net.OnTransfer; f != nil {
		f(TransferEvent{
			T: tx.pt.net.k.Now(), From: pt.name, To: dst.name,
			Kind: msg.Kind, KB: msg.KB, DurS: float64(tx.dur),
		})
	}
	tx.of.done(FaultNone)
	return tx.result(nil)
}

// end finishes the transfer with err.
func (tx *Tx) end(err error) (bool, error) {
	tx.state = txIdle
	return true, err
}

// done tells the receive holding the offer that its transfer ended with
// verdict.
func (of *offer) done(v FaultVerdict) {
	if r := of.rx; r != nil && r.of == of {
		r.fault = v
		r.wake(nil)
	}
}

// rxState is where an Rx is blocked.
type rxState uint8

const (
	rxIdle    rxState = iota
	rxArrival         // nothing acceptable queued, waiting for an offer
	rxDone            // accepted, waiting for the sender to complete
)

// Rx is one receive at a port. The zero value is ready to use; an Rx is
// reusable once done.
type Rx struct {
	task     *sim.Task
	pt       *Port
	opts     RxOpts
	deadline sim.Time
	state    rxState
	// of is the accepted offer while its transfer runs; msg is its
	// message and fault the sender's verdict at completion.
	of    *offer
	msg   Message
	fault FaultVerdict
	// seq and waiting register the done wait, which the sender ends.
	seq     uint64
	waiting bool
}

// Recv starts accepting the next transaction at pt on task, honouring
// opts; the message is returned once the sender completes it. A
// transfer that turns out dropped or garbled, or whose sender dies
// mid-wire, is discarded and the receive keeps waiting under the
// original deadline.
func (rx *Rx) Recv(task *sim.Task, pt *Port, opts RxOpts) (done bool, msg Message, err error) {
	// Reset in place, field by field: a whole Rx literal would be built
	// in a temporary and copied on every receive.
	rx.task, rx.pt, rx.opts, rx.deadline, rx.state = task, pt, opts, opts.Deadline, rxIdle
	rx.of, rx.msg, rx.fault, rx.seq, rx.waiting = nil, Message{}, FaultNone, 0, false
	if rx.deadline == 0 {
		rx.deadline = sim.Infinity
	}
	return rx.scan()
}

// Step continues the receive after its task resumed with err.
func (rx *Rx) Step(err error) (done bool, msg Message, res error) {
	pt := rx.pt
	switch rx.state {
	case rxArrival:
		if err != nil {
			if pt.waiting && pt.waiter == rx.task && pt.waitSeq == rx.seq {
				pt.waiting = false
			}
			if errors.Is(err, sim.ErrTimeout) {
				pt.stats.RxTimeouts++
				pt.met().rxTimeouts.Inc()
			}
			return rx.end(err)
		}
		return rx.scan()
	case rxDone:
		rx.of = nil
		rx.waiting = false
		switch {
		case err == errWithdrawn:
			// The sender withdrew in the same instant we accepted;
			// pretend we never saw the offer.
			return rx.scan()
		case errors.Is(err, sim.ErrTimeout):
			// The sender died (or crashed) mid-transfer: the wire went
			// quiet and the message never completed. To the receiver
			// that is an aborted delivery like any other.
			return rx.abort(FaultDrop)
		case err != nil:
			return rx.end(err) // leaving mid-rendezvous
		case rx.fault != FaultNone:
			// The wire time was spent but the message never arrived
			// (drop) or failed its integrity check (garble). The sender
			// learns the same instant and may retransmit.
			return rx.abort(rx.fault)
		}
		rx.state = rxIdle
		return true, rx.msg, nil
	}
	panic("serial: Step on an idle receive")
}

// scan accepts the first acceptable pending offer, or waits for one.
func (rx *Rx) scan() (bool, Message, error) {
	pt, task := rx.pt, rx.task
	now := pt.net.k.Now()
	of := pt.take(rx.opts.Accept)
	if of == nil {
		// Nothing acceptable in the whole queue: wait for the next
		// arrival and rescan. An arrival carries no state of its own —
		// a mailbox of arrival signals would only make a receive rescan
		// an unchanged queue once per signal before blocking all the
		// same — so none is kept.
		if rx.deadline <= now {
			pt.stats.RxTimeouts++
			pt.met().rxTimeouts.Inc()
			return rx.end(sim.ErrTimeout)
		}
		if pt.waiting {
			panic("serial: two receives waiting at port " + pt.name)
		}
		rx.seq = task.Block(rx.deadline)
		pt.waiter, pt.waitSeq, pt.waiting = task, rx.seq, true
		rx.state = rxArrival
		return false, Message{}, nil
	}
	// Accept: wake the sender into its wire time.
	if of.waiting {
		of.waiting = false
		of.sender.Wake(of.seq, nil)
	}
	if rx.opts.OnStart != nil {
		rx.opts.OnStart()
	}
	// Once a transfer begins it is no longer subject to the caller's
	// deadline; but a sender that dies mid-transfer never completes it,
	// so escape shortly after the wire time a live sender would have
	// taken.
	lp := pt.net.Params
	dur := lp.TxTime(of.msg.KB)
	if of.msg.Kind == KindAck {
		dur = lp.AckTime()
	}
	escape := now + sim.Time(dur) + 1e-6
	rx.of, rx.msg, rx.fault = of, of.msg, FaultNone
	of.rx = rx
	if escape <= now {
		rx.of = nil
		return rx.abort(FaultDrop)
	}
	rx.seq, rx.waiting = task.Block(escape), true
	rx.state = rxDone
	return false, Message{}, nil
}

// abort discards a faulted delivery and keeps waiting.
func (rx *Rx) abort(v FaultVerdict) (bool, Message, error) {
	rx.pt.accountRxFault(v)
	if rx.opts.OnAbort != nil {
		rx.opts.OnAbort()
	}
	return rx.scan()
}

// end finishes the receive with err.
func (rx *Rx) end(err error) (bool, Message, error) {
	rx.state = rxIdle
	return true, Message{}, err
}

// wake ends the receive's done wait with err, if it is still waiting.
func (rx *Rx) wake(err error) {
	if rx.waiting {
		rx.waiting = false
		rx.task.Wake(rx.seq, err)
	}
}

// accountTxFault charges a dropped or garbled send to the sending port.
func (pt *Port) accountTxFault(v FaultVerdict) {
	m := pt.met()
	if v == FaultGarble {
		pt.stats.TxGarbled++
		m.txGarbled.Inc()
		return
	}
	pt.stats.TxDropped++
	m.txDropped.Inc()
}

// accountRxFault charges a faulted delivery to the receiving port.
func (pt *Port) accountRxFault(v FaultVerdict) {
	m := pt.met()
	if v == FaultGarble {
		pt.stats.RxGarbled++
		m.rxGarbled.Inc()
	} else {
		pt.stats.RxDropped++
		m.rxDropped.Inc()
	}
	m.pendingDepth.Set(float64(pt.Pending()))
}

// accountTx credits a completed send to the sending port.
func (pt *Port) accountTx(msg Message, startup float64) {
	pt.stats.TxTransfers++
	pt.stats.TxKB += msg.KB
	pt.stats.TxStartupS += startup
	if msg.Kind == KindAck {
		pt.stats.TxAcks++
	}
	m := pt.met()
	m.txTransfers.Inc()
	m.txKB.Add(msg.KB)
	m.txStartupS.Add(startup)
}

// accountRx credits a completed receive to the accepting port.
func (pt *Port) accountRx(msg Message) {
	pt.stats.RxTransfers++
	pt.stats.RxKB += msg.KB
	m := pt.met()
	m.rxTransfers.Inc()
	m.rxKB.Add(msg.KB)
	m.pendingDepth.Set(float64(pt.Pending()))
}
