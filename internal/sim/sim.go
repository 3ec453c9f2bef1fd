// Package sim provides the simulated-time substrate for the DSM
// reproduction: per-processor virtual clocks and the communication cost
// model calibrated to the paper's §5.1 platform microbenchmarks
// (8×166 MHz Pentium, 100 Mbps switched Ethernet, UDP/IP).
//
// All protocol work in this repository is real (messages, diffs, write
// notices are actually produced and consumed); only *time* is simulated.
// Each processor owns a Clock; protocol actions charge calibrated costs to
// it, and the run's "execution time" is the maximum clock value at the end.
package sim

import (
	"fmt"
	"time"
)

// Duration is simulated time. It uses the same representation as
// time.Duration so costs read naturally (e.g. 296 * sim.Microsecond).
type Duration = time.Duration

// Convenience re-exports so callers need not import time for literals.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// CostModel holds the calibrated costs of the simulated platform. The
// defaults reproduce the paper's §5.1 microbenchmark table:
//
//	1-byte UDP round trip     296 µs
//	lock acquisition          374–574 µs
//	8-processor barrier       861 µs
//	diff fetch                579–1746 µs
//
// The derived per-leg and per-byte constants below regenerate those
// figures; see BenchmarkMicro* at the repository root.
type CostModel struct {
	// MessageLeg is the fixed cost of one message traversal (send
	// overhead + wire + receive overhead), excluding payload bytes.
	// A minimal round trip is 2*MessageLeg.
	MessageLeg Duration

	// PerByte is the incremental cost of each payload byte
	// (100 Mbps = 12.5 MB/s ⇒ 80 ns/byte).
	PerByte Duration

	// RequestService is the fixed remote-side cost of servicing a
	// request (interrupt, lookup) before the reply is sent.
	RequestService Duration

	// PageFault is the cost of fielding an access fault (trap + handler
	// entry), charged on every fault whether or not data is fetched.
	PageFault Duration

	// ProtOp is the cost of one memory-protection change
	// (mprotect-equivalent) on the simulated VM.
	ProtOp Duration

	// TwinPerPage is the cost of copying one 4 KB page to make a twin.
	TwinPerPage Duration

	// DiffPerPage is the cost of comparing one page against its twin to
	// encode a diff.
	DiffPerPage Duration

	// ApplyPerWord is the cost of applying one diffed word to a replica.
	ApplyPerWord Duration

	// BarrierManager is the manager-side aggregation cost of a barrier,
	// charged once per barrier on top of the message legs.
	BarrierManager Duration

	// LockService is the manager/holder-side cost of a lock grant.
	LockService Duration

	// MemAccess is the per-shared-access compute charge used by the
	// applications (fault-free loads/stores). It stands in for the
	// application compute the paper measured on the 166 MHz Pentiums.
	MemAccess Duration
}

// DefaultCostModel returns the model calibrated to the paper's platform.
func DefaultCostModel() CostModel {
	return CostModel{
		MessageLeg:     148 * Microsecond, // 2 legs = 296 µs 1-byte RTT
		PerByte:        80 * Nanosecond,   // 100 Mbps
		RequestService: 30 * Microsecond,
		PageFault:      25 * Microsecond,
		ProtOp:         10 * Microsecond,
		TwinPerPage:    20 * Microsecond,
		DiffPerPage:    60 * Microsecond,
		ApplyPerWord:   25 * Nanosecond,
		BarrierManager: 325 * Microsecond, // 296 (legs) + 325 + 8×30 (arrival service) = 861 µs

		LockService: 40 * Microsecond,
		MemAccess:   60 * Nanosecond,
	}
}

// RoundTrip returns the cost of a request/reply exchange carrying the
// given payload sizes, excluding remote service time.
func (c CostModel) RoundTrip(requestBytes, replyBytes int) Duration {
	return 2*c.MessageLeg +
		Duration(requestBytes+replyBytes)*c.PerByte
}

// Contended reports the adaptive protocol's contention gate (DESIGN.md
// §8): whether a network that carried msgs messages, queued queue in
// total, shows a mean queue delay per message of at least MessageLeg/16
// (9.25 µs on the paper's platform). Measured means per message on the
// built-in models span 83 µs (bus), 26 µs (switch) and 19 µs (atm)
// against 3 µs (myrinet), 0.8 µs (10gbe) and 0 (ideal), so the gate
// opens exactly on the interconnects where saving messages pays. The
// engine's policy and the trace derivation both ask it, so a derived
// adaptive cell sees the gate the engine saw.
func (c CostModel) Contended(queue Duration, msgs int64) bool {
	// ⌊Q/m⌋ ≥ g ⇔ Q ≥ g·m for m > 0, and the quotient cannot overflow
	// where the product can.
	return msgs > 0 && queue/Duration(msgs) >= c.MessageLeg/16
}

// Clock is one processor's virtual clock. It is owned by a single
// goroutine; cross-processor synchronization merges clocks explicitly
// (see Meet), mirroring how simulated time flows along messages.
type Clock struct {
	now Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Advance charges d to the clock. Negative charges are ignored so cost
// arithmetic in callers need not special-case zero-byte payloads.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to at least t (never backward).
func (c *Clock) AdvanceTo(t Duration) {
	if t > c.now {
		c.now = t
	}
}

// Meet returns the later of the two clock values; synchronization points
// (barrier departure, lock hand-off) set both parties to the meet.
func Meet(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MaxClock returns the maximum of the given times; a run's execution time
// is MaxClock over all processors' final clocks.
func MaxClock(ts ...Duration) Duration {
	var m Duration
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// FormatSeconds renders a simulated duration as seconds with millisecond
// resolution, the unit the paper's tables use.
func FormatSeconds(d Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
