package serial

import (
	"fmt"
	"sort"

	"dvsim/internal/metrics"
	"dvsim/internal/sim"
)

// Simulation layer: ports and rendezvous transfers on the discrete-event
// kernel.
//
// Topology follows the paper's Fig 5: every Itsy node owns one serial
// port, PPP-linked to a dedicated port on the host, which IP-forwards
// between nodes. A node-to-node transfer therefore occupies both nodes'
// ports simultaneously for one transaction time (cut-through forwarding,
// matching Fig 3 where SEND1 and RECV2 overlap); the mains-powered host
// costs nothing.
//
// A transfer is a rendezvous: it begins when the sender's offer meets the
// receiver's accept, lasts LinkParams.TxTime(payload), and releases both
// sides together. Time spent blocked waiting for the peer is idle time,
// not transfer time; the OnStart callbacks tell callers the instant the
// line actually goes active, so they can account CPU modes precisely.
//
// Both ends are callback state machines on the caller's sim.Task: a Tx
// walks offer → accept → wire time → done (or withdraw, timeout, fault
// and retry backoff), an Rx walks arrival → accept → done. The owner
// starts one, then feeds each of its task's resumes to Step until Step
// reports done. The *sim.Proc methods (Send, Recv, …) are blocking
// adapters over the same machines.

// Kind classifies messages for the node runtime's protocol logic.
type Kind int

// Message kinds.
const (
	// KindFrame is a raw image frame from the host source.
	KindFrame Kind = iota
	// KindInter is an intermediate result between pipeline nodes.
	KindInter
	// KindResult is a final result returned to the host.
	KindResult
	// KindAck is a bare acknowledgment transaction (§5.4).
	KindAck
	// KindCtrl is a control message (failure reports, reconfiguration).
	KindCtrl

	numKinds = iota
)

// Kinds is a set of message kinds, for a receive to select what it
// accepts. The zero set accepts every kind.
type Kinds uint8

// KindsOf returns the set of the given kinds.
func KindsOf(ks ...Kind) Kinds {
	var s Kinds
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// has reports whether the set accepts kind k.
func (s Kinds) has(k Kind) bool { return s == 0 || s&(1<<k) != 0 }

func (k Kind) String() string {
	switch k {
	case KindFrame:
		return "frame"
	case KindInter:
		return "inter"
	case KindResult:
		return "result"
	case KindAck:
		return "ack"
	case KindCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one transaction's content.
type Message struct {
	From string
	Kind Kind
	// Frame is the frame sequence number the message pertains to.
	Frame int
	// KB is the payload size on the wire.
	KB float64
	// Payload carries typed data for the native pipeline (images,
	// spectra); the profiled experiments leave it nil.
	Payload any
	// Note carries control details for KindCtrl.
	Note string
}

// offer is a sender's transfer at a receiver's port: queued until a
// receive accepts it, then held by that receive until the transfer ends.
// It is embedded in the sender's Tx, so a send allocates nothing.
type offer struct {
	msg Message
	// queued marks an offer in its destination's pending FIFO; arrival
	// numbers it among the port's arrivals.
	queued  bool
	arrival uint64
	// sender and seq are the sender's accept wait; waiting is set while
	// it is registered (the rendezvous' accept signal has one waiter).
	sender  *sim.Task
	seq     uint64
	waiting bool
	// rx is the receive that accepted the offer; the sender's done or
	// withdrawal reaches it only while it still holds the offer.
	rx *Rx
}

// PortStats is one port's transfer accounting, split by direction. The
// Tx side counts transactions this port initiated; the Rx side counts
// transactions accepted here. StartupS is the cumulative per-transaction
// setup latency paid by this port's sends (§4.3's 50–100 ms overhead),
// the quantity the recovery protocol's extra acks inflate.
type PortStats struct {
	TxTransfers int
	TxKB        float64
	TxStartupS  float64
	TxTimeouts  int // sends abandoned before the receiver accepted
	TxAcks      int // bare acknowledgment transactions sent
	TxDropped   int // sends lost on the wire (fault injection)
	TxGarbled   int // sends delivered corrupt and discarded (fault injection)
	TxRetries   int // retransmissions attempted after a dropped/garbled send
	TxGiveUps   int // reliable sends abandoned with the retry budget spent
	RxTransfers int
	RxKB        float64
	RxTimeouts  int // receives that expired waiting for a message
	RxDropped   int // accepted transfers that never arrived (drop fault)
	RxGarbled   int // accepted transfers discarded as corrupt (garble fault)
	MaxPending  int // high-water mark of senders queued at this port
}

// Port is one serial endpoint. Senders address the receiving port
// directly (the host's forwarding is implicit in the timing model).
// Each port is owned by a single receiving task.
type Port struct {
	net  *Network
	name string
	// pending holds the live offers in one FIFO per kind. A receive
	// takes the earliest-numbered head among the kinds it accepts, which
	// is the first acceptable offer of the port's arrival order, without
	// passing the offers it does not accept. Withdrawn offers leave at
	// once, so npending is the live count.
	pending  [numKinds]fifo
	arrivals uint64
	npending int
	// waiter and waitSeq are the receive blocked for an arrival; waiting
	// is set while it is registered.
	waiter  *sim.Task
	waitSeq uint64
	waiting bool
	stats   PortStats
	inst    *portInstruments
}

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Stats returns a copy of the port's transfer accounting.
func (pt *Port) Stats() PortStats { return pt.stats }

// portInstruments caches the port's labeled metrics handles. With
// metrics disabled every field is a nil, no-op instrument.
type portInstruments struct {
	txTransfers, txKB, txStartupS, txTimeouts  *metrics.Counter
	txDropped, txGarbled, txRetries, txGiveUps *metrics.Counter
	rxTransfers, rxKB, rxTimeouts              *metrics.Counter
	rxDropped, rxGarbled                       *metrics.Counter
	pendingDepth                               *metrics.Gauge
}

// met returns (building on first use) the port's metric handles.
func (pt *Port) met() *portInstruments {
	if pt.inst == nil {
		r := pt.net.reg
		pt.inst = &portInstruments{
			txTransfers:  r.Counter("serial_tx_transfers", pt.name),
			txKB:         r.Counter("serial_tx_kb", pt.name),
			txStartupS:   r.Counter("serial_tx_startup_s", pt.name),
			txTimeouts:   r.Counter("serial_tx_timeouts", pt.name),
			txDropped:    r.Counter("serial_tx_dropped", pt.name),
			txGarbled:    r.Counter("serial_tx_garbled", pt.name),
			txRetries:    r.Counter("serial_tx_retries", pt.name),
			txGiveUps:    r.Counter("serial_tx_giveups", pt.name),
			rxTransfers:  r.Counter("serial_rx_transfers", pt.name),
			rxKB:         r.Counter("serial_rx_kb", pt.name),
			rxTimeouts:   r.Counter("serial_rx_timeouts", pt.name),
			rxDropped:    r.Counter("serial_rx_dropped", pt.name),
			rxGarbled:    r.Counter("serial_rx_garbled", pt.name),
			pendingDepth: r.Gauge("serial_pending_depth", pt.name),
		}
	}
	return pt.inst
}

// Pending returns the number of senders waiting at this port.
func (pt *Port) Pending() int { return pt.npending }

// push queues an offer at the back of its kind's FIFO.
func (pt *Port) push(of *offer) {
	k := of.msg.Kind
	if k < 0 || k >= numKinds {
		panic(fmt.Sprintf("serial: send of unknown message kind %v to port %s", k, pt.name))
	}
	pt.arrivals++
	of.arrival, of.queued = pt.arrivals, true
	pt.pending[k].push(of)
	pt.npending++
}

// take removes and returns the earliest pending offer of an accepted
// kind, or nil.
func (pt *Port) take(accept Kinds) *offer {
	var first *fifo
	for k := range pt.pending {
		f := &pt.pending[k]
		if f.len() > 0 && accept.has(Kind(k)) && (first == nil || f.front().arrival < first.front().arrival) {
			first = f
		}
	}
	if first == nil {
		return nil
	}
	of := first.front()
	first.remove(first.head)
	of.queued = false
	pt.npending--
	return of
}

// unqueue removes a withdrawn offer from its kind's FIFO.
func (pt *Port) unqueue(of *offer) {
	f := &pt.pending[of.msg.Kind]
	for i := f.head; i < len(f.q); i++ {
		if f.q[i] == of {
			f.remove(i)
			of.queued = false
			pt.npending--
			return
		}
	}
}

// fifo is one kind's queue of offers, head-indexed: pops advance head,
// so a backlog drains in O(1) per offer.
type fifo struct {
	q    []*offer
	head int
}

func (f *fifo) len() int      { return len(f.q) - f.head }
func (f *fifo) front() *offer { return f.q[f.head] }

// push appends an offer, first compacting the queue when its consumed
// prefix outgrows the live part (amortized O(1) per offer).
func (f *fifo) push(of *offer) {
	if f.head > 0 && f.head >= len(f.q)/2 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, of)
}

// remove drops q[i], keeping FIFO order.
func (f *fifo) remove(i int) {
	if i == f.head {
		f.q[i] = nil
		f.head++
	} else {
		last := len(f.q) - 1
		copy(f.q[i:], f.q[i+1:])
		f.q[last] = nil
		f.q = f.q[:last]
	}
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
}

// arrive signals a new offer to the receive blocked on an arrival.
func (pt *Port) arrive() {
	if pt.waiting {
		pt.waiting = false
		pt.waiter.Wake(pt.waitSeq, nil)
	}
}

// TxOpts modifies a send.
type TxOpts struct {
	// Deadline bounds how long to wait for the receiver to accept;
	// zero means wait forever. Once a transfer begins it always runs to
	// completion.
	Deadline sim.Time
	// OnStart is invoked at the instant the transfer begins.
	OnStart func()
	// OnBackoff is invoked by SendReliable at the instant a retransmit
	// backoff begins, so callers can drop to a low-power mode while the
	// line is quiet.
	OnBackoff func()
}

// RxOpts modifies a receive.
type RxOpts struct {
	// Deadline bounds the whole receive; zero means wait forever.
	Deadline sim.Time
	// Accept selects the kinds of pending messages to accept; the zero
	// set accepts any. Messages of other kinds stay queued, in order.
	Accept Kinds
	// OnStart is invoked at the instant the transfer begins.
	OnStart func()
	// OnAbort is invoked when an accepted transfer turns out dropped or
	// garbled and the receive goes back to waiting; like OnStart it lets
	// callers account CPU modes precisely.
	OnAbort func()
}

// TransferEvent describes one completed transaction, for telemetry
// streams (the run log's "link" events).
type TransferEvent struct {
	// T is the completion time.
	T sim.Time
	// From and To are the sending and receiving port names.
	From, To string
	Kind     Kind
	KB       float64
	// DurS is the wire time, startup included.
	DurS float64
}

// Network creates and tracks ports sharing one link timing model.
type Network struct {
	k      *sim.Kernel
	Params LinkParams
	ports  map[string]*Port
	reg    *metrics.Registry
	// OnTransfer, when set, observes every completed transaction.
	OnTransfer func(TransferEvent)
	// Fault, when set, is consulted at the start of every transfer and
	// may fail it (see FaultInjector). Nil is the healthy network.
	Fault FaultInjector
	// OnRetry, when set, observes every retransmission scheduled by
	// SendReliable.
	OnRetry func(RetryEvent)
	// Stats.
	transfers int
	kbMoved   float64
	faulted   int
}

// NewNetwork returns a network on kernel k with the given link timing.
func NewNetwork(k *sim.Kernel, params LinkParams) *Network {
	return &Network{k: k, Params: params, ports: make(map[string]*Port)}
}

// SetMetrics installs the registry the network's ports record into.
// Call it before traffic flows; a nil registry (the default) disables
// recording. Per-port PortStats are always kept — they are plain
// integer fields with negligible cost.
func (n *Network) SetMetrics(r *metrics.Registry) { n.reg = r }

// Port returns (creating on first use) the named port.
func (n *Network) Port(name string) *Port {
	if p, ok := n.ports[name]; ok {
		return p
	}
	p := &Port{net: n, name: name}
	n.ports[name] = p
	return p
}

// Transfers returns the number of completed transactions.
func (n *Network) Transfers() int { return n.transfers }

// Faulted returns the number of transactions lost to injected faults.
func (n *Network) Faulted() int { return n.faulted }

// KBMoved returns the total payload carried, in KB.
func (n *Network) KBMoved() float64 { return n.kbMoved }

// Ports returns every port created so far, sorted by name for
// deterministic export.
func (n *Network) Ports() []*Port {
	out := make([]*Port, 0, len(n.ports))
	for _, p := range n.ports {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
