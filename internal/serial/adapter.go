package serial

import "dvsim/internal/sim"

// Blocking adapters for the benchmark probe's sequential processes:
// each runs one state machine on the process's task, parking the
// process between steps. The simulator itself drives Tx and Rx on
// tasks directly.

// Send performs one transaction delivering msg to dst: it blocks until
// the receiver accepts, then for the transaction time. The returned
// error is non-nil if the process was interrupted before completion.
func (pt *Port) Send(p *sim.Proc, dst *Port, msg Message) error {
	var tx Tx
	done, err := tx.Send(p.Task(), pt, dst, msg, TxOpts{})
	for !done {
		done, err = tx.Step(p.Await())
	}
	return err
}

// Recv accepts the next transaction at this port and blocks until the
// sender completes it.
func (pt *Port) Recv(p *sim.Proc) (Message, error) {
	var rx Rx
	done, msg, err := rx.Recv(p.Task(), pt, RxOpts{})
	for !done {
		done, msg, err = rx.Step(p.Await())
	}
	return msg, err
}
