package serial

import (
	"errors"
	"fmt"

	"dvsim/internal/sim"
)

// Link-fault plumbing and the bounded-retransmit send. The paper's §5.4
// recovery protocol already pays for acknowledgment transactions; this
// layer generalizes it: any transfer can be lost or corrupted on the
// wire (internal/fault decides when, deterministically), the sender
// detects the failure at the end of the transaction — the line-level
// CRC/NAK of a real PPP link — and retransmits after an exponential
// backoff, up to a bounded budget.

// FaultVerdict is an injected fault's decision about one transfer.
type FaultVerdict int

const (
	// FaultNone delivers the transfer normally.
	FaultNone FaultVerdict = iota
	// FaultDrop loses the transfer: the wire time is spent on both
	// sides, but the receiver never sees the message.
	FaultDrop
	// FaultGarble corrupts the transfer: delivered, failed its
	// integrity check, and discarded by the receiver.
	FaultGarble
)

func (v FaultVerdict) String() string {
	switch v {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultGarble:
		return "garble"
	default:
		return fmt.Sprintf("FaultVerdict(%d)", int(v))
	}
}

// FaultInjector decides the fate of each transfer. Implementations must
// be deterministic functions of the simulation state (see
// internal/fault); they are consulted once per transfer attempt, at the
// instant the rendezvous is established.
type FaultInjector interface {
	Transfer(now sim.Time, from, to string, msg Message) FaultVerdict
}

// Errors reported by faulted and reliable sends.
var (
	// ErrDropped reports a send lost on the wire.
	ErrDropped = errors.New("serial: transfer dropped")
	// ErrGarbled reports a send delivered corrupt and discarded.
	ErrGarbled = errors.New("serial: transfer garbled")
	// ErrRetriesExhausted reports a reliable send abandoned with its
	// retransmit budget spent. It wraps the final attempt's error.
	ErrRetriesExhausted = errors.New("serial: retransmit budget exhausted")
)

// IsFault reports whether err is a wire fault a retransmission could
// recover from (as opposed to a timeout, interrupt or shutdown).
func IsFault(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrGarbled)
}

// RetryPolicy bounds the retransmit loop of a reliable send. The zero value
// (and any MaxAttempts ≤ 1) disables retransmission: a faulted send
// fails immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of transmissions allowed,
	// including the first.
	MaxAttempts int `json:"max_attempts"`
	// BackoffS is the pause before the first retransmission, in
	// simulated seconds.
	BackoffS float64 `json:"backoff_s"`
	// BackoffFactor multiplies the pause after each failed attempt;
	// values ≤ 1 keep it constant.
	BackoffFactor float64 `json:"backoff_factor"`
	// MaxBackoffS caps the grown pause; 0 means uncapped.
	MaxBackoffS float64 `json:"max_backoff_s"`
}

// DefaultRetryPolicy is a budget sized for the Itsy link: four
// transmissions with 50 ms → 100 ms → 200 ms backoff, which keeps even a
// twice-dropped acknowledgment inside the §5.4 failure-detection timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BackoffS: 0.05, BackoffFactor: 2, MaxBackoffS: 1}
}

// Enabled reports whether the policy allows any retransmission.
func (rp RetryPolicy) Enabled() bool { return rp.MaxAttempts > 1 }

// Validate checks the policy's fields for consistency.
func (rp RetryPolicy) Validate() error {
	if rp.MaxAttempts < 0 {
		return fmt.Errorf("serial: retry max_attempts %d", rp.MaxAttempts)
	}
	if rp.BackoffS < 0 || rp.BackoffFactor < 0 || rp.MaxBackoffS < 0 {
		return fmt.Errorf("serial: negative retry backoff %+v", rp)
	}
	return nil
}

// Backoff returns the pause before retransmission number retry (1-based),
// growing exponentially and clamped to MaxBackoffS.
func (rp RetryPolicy) Backoff(retry int) float64 {
	b := rp.BackoffS
	for i := 1; i < retry; i++ {
		if rp.BackoffFactor > 1 {
			b *= rp.BackoffFactor
		}
	}
	if rp.MaxBackoffS > 0 && b > rp.MaxBackoffS {
		b = rp.MaxBackoffS
	}
	return b
}

// RetryEvent describes one scheduled retransmission, for telemetry
// streams (the run log's "retry" events).
type RetryEvent struct {
	// T is the instant the backoff begins.
	T sim.Time
	// From and To are the sending and receiving port names.
	From, To string
	Kind     Kind
	Frame    int
	// Attempt is the transmission that just failed (1-based).
	Attempt int
	// BackoffS is the pause before the next attempt.
	BackoffS float64
	// Cause is the wire fault being recovered from.
	Cause FaultVerdict
}

// result ends one attempt with err: a reliable send retransmits a wire
// fault after its backoff while the budget lasts, and every other
// outcome ends the transfer.
func (tx *Tx) result(err error) (bool, error) {
	if !tx.reliable || err == nil || !IsFault(err) {
		return tx.end(err)
	}
	attempts := max(tx.rp.MaxAttempts, 1)
	pt, msg := tx.pt, &tx.of.msg
	if tx.tries >= attempts {
		pt.stats.TxGiveUps++
		pt.met().txGiveUps.Inc()
		return tx.end(fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempts, err))
	}
	verdict := FaultDrop
	if errors.Is(err, ErrGarbled) {
		verdict = FaultGarble
	}
	now := tx.pt.net.k.Now()
	back := tx.rp.Backoff(tx.tries)
	pt.stats.TxRetries++
	pt.met().txRetries.Inc()
	if f := pt.net.OnRetry; f != nil {
		f(RetryEvent{
			T: now, From: pt.name, To: tx.dst.name,
			Kind: msg.Kind, Frame: msg.Frame,
			Attempt: tx.tries, BackoffS: back, Cause: verdict,
		})
	}
	if tx.opts.OnBackoff != nil {
		tx.opts.OnBackoff()
	}
	tx.task.WaitUntil(now + sim.Duration(back))
	tx.state = txBackoff
	return false, nil
}
