package trace

import (
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Sink receives one engine run's full event stream — the simnet pricing
// operations (under the network's pricing lock, in exact pricing order)
// plus the engine lifecycle events, which arrive from the processor
// goroutines in wall-clock order. *MemSink is the implementation: a
// compact in-memory buffer that Derive re-prices and EmitJSONL encodes.
// Writer.Sink wraps one to write each run as JSONL when it ends.
//
// Begin opens the run and RunEnd closes it with the recorded totals and
// every processor's final virtual clock (Result.ProcTimes).
type Sink interface {
	simnet.TraceSink

	Begin(meta RunMeta)
	// BarrierEnter records processor p arriving at a barrier at its
	// virtual clock; BarrierLeave records it departing episode n at its
	// post-release clock.
	BarrierEnter(p int, at sim.Duration)
	BarrierLeave(p, episode int, at sim.Duration)
	// LockRequest records p asking for lock l before the request message
	// (cached re-acquires are message-free and record nothing);
	// LockAcquire and LockRelease record the grant and the release.
	LockRequest(p, l int, at sim.Duration)
	LockAcquire(p, l int, at sim.Duration)
	LockRelease(p, l int, at sim.Duration)
	// FaultBegin records an access fault by p on a page of a unit;
	// FaultEnd records it serviced, at p's post-fetch clock.
	FaultBegin(p, page, unit int, at sim.Duration)
	FaultEnd(p, page int, at sim.Duration)
	// ProtocolSwitch records the adaptive policy re-pointing unit u from
	// one engine to another during evidence phase n.
	ProtocolSwitch(u int, from, to string, phase int)
	// Rehome records the placement layer moving unit u's home; transfer
	// reports whether bytes of home state travelled on the wire.
	Rehome(u, from, to, bytes int, transfer bool)
	RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration)
}

var _ Sink = (*MemSink)(nil)
