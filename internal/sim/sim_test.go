package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock = %v, want 0", c.Now())
	}
	c.Advance(5 * Microsecond)
	c.Advance(3 * Microsecond)
	if got := c.Now(); got != 8*Microsecond {
		t.Fatalf("Now = %v, want 8µs", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	var c Clock
	c.Advance(10 * Microsecond)
	c.Advance(-4 * Microsecond)
	if got := c.Now(); got != 10*Microsecond {
		t.Fatalf("Now = %v, want 10µs (negative charge must be ignored)", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * Microsecond)
	c.AdvanceTo(5 * Microsecond) // backward: no-op
	if got := c.Now(); got != 10*Microsecond {
		t.Fatalf("AdvanceTo moved clock backward: %v", got)
	}
	c.AdvanceTo(25 * Microsecond)
	if got := c.Now(); got != 25*Microsecond {
		t.Fatalf("AdvanceTo = %v, want 25µs", got)
	}
}

func TestMeet(t *testing.T) {
	if got := Meet(3*Microsecond, 7*Microsecond); got != 7*Microsecond {
		t.Fatalf("Meet = %v, want 7µs", got)
	}
	if got := Meet(7*Microsecond, 3*Microsecond); got != 7*Microsecond {
		t.Fatalf("Meet = %v, want 7µs", got)
	}
}

func TestMaxClock(t *testing.T) {
	if got := MaxClock(); got != 0 {
		t.Fatalf("MaxClock() = %v, want 0", got)
	}
	if got := MaxClock(1, 9, 4); got != 9 {
		t.Fatalf("MaxClock = %v, want 9", got)
	}
}

func TestDefaultCostModelMatchesPaperRTT(t *testing.T) {
	m := DefaultCostModel()
	// Paper §5.1: 1-byte UDP round trip = 296 µs.
	rtt := m.RoundTrip(1, 0)
	lo, hi := 295*Microsecond, 297*Microsecond
	if rtt < lo || rtt > hi {
		t.Fatalf("1-byte RTT = %v, want ~296µs", rtt)
	}
}

// The contention gate opens at a mean queue delay per message of
// MessageLeg/16 — 9.25 µs on the paper's platform — never with no
// messages, and a gate no queue reaches stays shut however many messages
// were sent: gate × messages overflows Duration, and the test must not
// wrap into "open".
func TestContendedHugeGate(t *testing.T) {
	m := DefaultCostModel()
	for _, tc := range []struct {
		queue Duration
		msgs  int64
		want  bool
	}{
		{0, 0, false},
		{Second, 0, false},
		{0, 10, false},
		{10*9250*Nanosecond - 1, 10, false},
		{10 * 9250 * Nanosecond, 10, true},
		{Second, 1, true},
	} {
		if got := m.Contended(tc.queue, tc.msgs); got != tc.want {
			t.Errorf("Contended(%v, %d) = %v, want %v", tc.queue, tc.msgs, got, tc.want)
		}
	}
	huge := CostModel{MessageLeg: math.MaxInt64}
	if huge.Contended(math.MaxInt64/2, 1<<20) {
		t.Fatal("a gate of MaxInt64/16 opened")
	}
}

func TestDefaultCostModelBandwidth(t *testing.T) {
	m := DefaultCostModel()
	// 100 Mbps = 80 ns per byte.
	d := m.RoundTrip(0, 4096) - m.RoundTrip(0, 0)
	want := Duration(4096) * 80 * Nanosecond
	if d != want {
		t.Fatalf("4096-byte payload cost = %v, want %v", d, want)
	}
}

func TestDefaultCostModelDiffFetchInPaperRange(t *testing.T) {
	m := DefaultCostModel()
	// Paper §5.1: diff fetch 579–1746 µs. A diff fetch is
	// fault + request/reply round trip + remote service + diff encode
	// (in our engine diffs are pre-encoded, but the cost is charged).
	small := m.PageFault + m.RoundTrip(64, 512) + m.RequestService
	large := m.PageFault + m.RoundTrip(64, 3*4096) + m.RequestService + 2*m.DiffPerPage
	if small < 300*Microsecond || small > 800*Microsecond {
		t.Errorf("small diff fetch = %v, want within a plausible 300–800µs", small)
	}
	if large < 800*Microsecond || large > 2000*Microsecond {
		t.Errorf("large diff fetch = %v, want within a plausible 0.8–2ms", large)
	}
}

func TestRoundTripMonotonicInBytes(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.RoundTrip(0, x) <= m.RoundTrip(0, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatSeconds(t *testing.T) {
	if got := FormatSeconds(1500 * Millisecond); got != "1.500" {
		t.Fatalf("FormatSeconds = %q, want %q", got, "1.500")
	}
}
