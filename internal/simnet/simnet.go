// Package simnet is the simulated cluster interconnect carrying the
// DSM's protocol messages between the simulated processors.
//
// Protocol payloads (diffs, write notices, lock grants) travel for real
// between goroutines; this package counts every message and its wire
// bytes per kind for the paper's communication breakdowns, and delegates
// the virtual-time *pricing* of legs and exchanges to a pluggable
// internal/netmodel Model — the paper's flat
// §5.1 arithmetic ("ideal", the default) or a contention-aware
// interconnect ("bus", "switch", and the preset family). Delivery
// itself uses the Go memory model (the engine's synchronous hand-offs),
// which is the idiomatic substitution for UDP/IP between address
// spaces: what the paper measures is counts × costs, and both are
// preserved.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// MsgKind identifies the protocol message types of the TreadMarks-style
// engine.
type MsgKind uint8

const (
	// DiffRequest asks a writer for the diffs of a set of pages.
	DiffRequest MsgKind = iota
	// DiffReply returns the requested diffs.
	DiffReply
	// LockRequest travels from an acquirer to the lock's manager.
	LockRequest
	// LockForward travels from the manager to the current holder.
	LockForward
	// LockGrant hands the lock (plus consistency information) to the
	// acquirer.
	LockGrant
	// BarrierArrive carries a processor's new write notices to the
	// barrier manager.
	BarrierArrive
	// BarrierRelease broadcasts merged write notices from the manager.
	BarrierRelease
	// HomeFlush carries a writer's diffs to a unit's home processor at
	// release time (home-based protocols only). It is a one-way message
	// and, like synchronization traffic, always necessary — the home
	// must be kept up to date regardless of who later reads the unit —
	// so it is not a data message in the §5.3 usefulness sense.
	HomeFlush
	// HomeHandoff carries a unit's current image to its new home when
	// the adaptive protocol switches the unit from homeless to
	// home-based ownership: the home pulls the image from the unit's
	// last writer in one request/reply exchange. Like HomeFlush it is
	// protocol-management traffic, not a data message in the §5.3
	// usefulness sense.
	HomeHandoff
	// HomeMigrate carries a unit's versioned home state to its new home
	// when the placement layer rehomes the unit at a barrier
	// (JIAJIA-style migration): the new home pulls the state from the
	// old home in one request/reply exchange. Protocol-management
	// traffic, like HomeHandoff.
	HomeMigrate

	numKinds
)

var kindNames = [numKinds]string{
	"DiffRequest", "DiffReply", "LockRequest", "LockForward",
	"LockGrant", "BarrierArrive", "BarrierRelease", "HomeFlush",
	"HomeHandoff", "HomeMigrate",
}

func (k MsgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// ParseKind is String's inverse over the defined kinds.
func ParseKind(name string) (MsgKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return MsgKind(k), true
		}
	}
	return 0, false
}

// IsData reports whether the kind carries application data (diffs); only
// data messages can be useless in the paper's sense. Synchronization
// messages are necessary regardless of the data they carry.
func (k MsgKind) IsData() bool { return k == DiffRequest || k == DiffReply }

// KindCount aggregates the messages of one kind.
type KindCount struct {
	Messages int
	Bytes    int
}

// Network counts every protocol message of a run and prices legs and
// exchanges through its network model. It is safe for concurrent use by
// all processor goroutines.
//
// The network keeps no per-message log, only O(1) running totals —
// Counts, CountsByKind, QueueTotal. The one per-message record of a run
// is the trace capture (SetTraceSink).
//
// A stateful pricing model prices under a lock, so its occupancy state
// advances in one order: the queue a message sees is the queue left by
// the messages priced before it. A trace sink takes the same lock, so
// it observes that order. When neither applies — a stateless model
// (see netmodel.Stateless) and no sink — the send paths skip the mutex
// entirely and the totals advance with atomics; they are
// order-independent sums, so they stay exact.
type Network struct {
	cost  sim.CostModel
	model netmodel.Model
	// lockFree is set at construction when the model is stateless (and
	// cleared while a trace sink is installed).
	lockFree bool
	// sink, when non-nil, observes every priced message under mu.
	sink TraceSink

	mu sync.Mutex
	// Running totals. Atomics so the lock-free mode shares them with the
	// locked paths.
	totalMsgs  atomic.Int64
	totalBytes atomic.Int64
	kindMsgs   [numKinds]atomic.Int64
	kindBytes  [numKinds]atomic.Int64
	totalQueue atomic.Int64
}

// TraceSink observes every priced message. The callbacks run inside
// the network's pricing lock, so a sink sees the operations in exactly
// the order the model priced them — the property that makes a captured
// trace replayable to bit-identical totals. Implementations must not
// call back into the Network.
//
// The three callbacks mirror the three pricing operations: a payload
// leg, a control leg (priced payload-free; bytes is still the wire
// size), and a request/reply exchange (the reply leg departs at
// at + t.Request.Total + t.Service).
type TraceSink interface {
	TraceLeg(kind MsgKind, src, dst, bytes int, at, queue sim.Duration)
	TraceControl(kind MsgKind, src, dst, bytes int, at, queue sim.Duration)
	TraceExchange(reqKind, repKind MsgKind, src, dst, reqBytes, replyBytes int, at sim.Duration, t netmodel.ExchangeTiming)
}

// SetTraceSink installs (or, with nil, removes) the network's trace
// sink. A non-nil sink forces the send paths through the pricing lock
// even on a stateless model — emission order must match pricing order.
// Must not be called concurrently with sends: install the sink before
// the processor goroutines start, remove it after they join.
func (n *Network) SetTraceSink(s TraceSink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sink = s
	n.lockFree = netmodel.IsStateless(n.model) && s == nil
}

// Option configures a Network under construction.
type Option func(*Network)

// WithCountsOnly is a no-op kept for callers written when the network
// could retain a per-message log: every Network now keeps only its
// running totals.
func WithCountsOnly() Option { return func(*Network) {} }

// New returns an empty network priced by the ideal (contention-free)
// model over the given cost calibration.
func New(cost sim.CostModel, opts ...Option) *Network {
	m, err := netmodel.New(netmodel.Default, cost)
	if err != nil {
		panic(err) // the default model is always registered
	}
	return NewWithModel(cost, m, opts...)
}

// NewWithModel returns an empty network priced by the given model.
func NewWithModel(cost sim.CostModel, m netmodel.Model, opts ...Option) *Network {
	n := &Network{cost: cost, model: m, lockFree: netmodel.IsStateless(m)}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Cost returns the network's cost model.
func (n *Network) Cost() sim.CostModel { return n.cost }

// Model returns the network's timing model.
func (n *Network) Model() netmodel.Model { return n.model }

// count advances the running totals for one message. Atomic, so both
// the locked and lock-free send paths share it.
func (n *Network) count(kind MsgKind, bytes int, queue sim.Duration) {
	n.totalMsgs.Add(1)
	n.totalBytes.Add(int64(bytes))
	n.kindMsgs[kind].Add(1)
	n.kindBytes[kind].Add(int64(bytes))
	if queue != 0 {
		n.totalQueue.Add(int64(queue))
	}
}

// SendLeg counts one one-way message departing at the sender's virtual
// time at, priced by the network model, and returns its timing.
func (n *Network) SendLeg(kind MsgKind, src, dst, bytes int, at sim.Duration) netmodel.Timing {
	if !n.lockFree {
		n.mu.Lock()
		defer n.mu.Unlock()
	}
	t := n.model.Leg(src, dst, bytes, at)
	if n.sink != nil {
		n.sink.TraceLeg(kind, src, dst, bytes, at, t.Queue)
	}
	n.count(kind, bytes, t.Queue)
	return t
}

// SendControl counts a control message (lock request/forward) priced
// as a payload-free leg: its few header bytes fold into the fixed leg
// cost, matching the pre-netmodel engine's arithmetic, while the
// counted size still reflects the bytes on the wire.
func (n *Network) SendControl(kind MsgKind, src, dst, bytes int, at sim.Duration) netmodel.Timing {
	if !n.lockFree {
		n.mu.Lock()
		defer n.mu.Unlock()
	}
	t := n.model.Leg(src, dst, 0, at)
	if n.sink != nil {
		n.sink.TraceControl(kind, src, dst, bytes, at, t.Queue)
	}
	n.count(kind, bytes, t.Queue)
	return t
}

// SendExchange counts a request/reply pair departing at the
// requester's virtual time at, priced by the network model as one
// exchange, and returns the exchange timing (the caller charges
// ExchangeTiming.Total, which includes the remote service).
func (n *Network) SendExchange(reqKind, repKind MsgKind, src, dst, reqBytes, replyBytes int, at sim.Duration) netmodel.ExchangeTiming {
	if !n.lockFree {
		n.mu.Lock()
		defer n.mu.Unlock()
	}
	t := n.model.Exchange(src, dst, reqBytes, replyBytes, at)
	if n.sink != nil {
		n.sink.TraceExchange(reqKind, repKind, src, dst, reqBytes, replyBytes, at, t)
	}
	n.count(reqKind, reqBytes, t.Request.Queue)
	n.count(repKind, replyBytes, t.Reply.Queue)
	return t
}

// Counts returns the total number of messages and payload bytes.
func (n *Network) Counts() (messages, bytes int) {
	return int(n.totalMsgs.Load()), int(n.totalBytes.Load())
}

// CountsByKind returns per-kind message and byte totals.
func (n *Network) CountsByKind() map[MsgKind]KindCount {
	out := make(map[MsgKind]KindCount, numKinds)
	for k := range n.kindMsgs {
		if m := n.kindMsgs[k].Load(); m > 0 {
			out[MsgKind(k)] = KindCount{
				Messages: int(m), Bytes: int(n.kindBytes[k].Load()),
			}
		}
	}
	return out
}

// QueueTotal returns the cumulative contention delay across all
// counted messages (zero on the ideal model).
func (n *Network) QueueTotal() sim.Duration {
	return sim.Duration(n.totalQueue.Load())
}
