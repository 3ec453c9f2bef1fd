package netmodel

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func mustNew(t testing.TB, name string) Model {
	t.Helper()
	m, err := New(name, sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	for _, want := range []string{"ideal", "bus", "switch", "atm", "myrinet", "10gbe"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
	for _, n := range names {
		for _, spelling := range []string{n, strings.ToUpper(n)} {
			if m := mustNew(t, spelling); m.Name() != n {
				t.Fatalf("New(%q).Name() = %q", spelling, m.Name())
			}
		}
	}
	if _, err := New("token-ring", sim.DefaultCostModel()); err == nil {
		t.Fatal("New of unknown model must error")
	}
	if m := mustNew(t, ""); m.Name() != Default {
		t.Fatalf("empty name must select %q, got %q", Default, m.Name())
	}
}

// TestIdealParity pins the ideal model to the sim.CostModel arithmetic
// the engine used before this subsystem existed — the golden-count
// tests at the repository root depend on this being bit-identical.
func TestIdealParity(t *testing.T) {
	cost := sim.DefaultCostModel()
	m := mustNew(t, "ideal")
	for _, bytes := range []int{0, 1, 16, 512, 4096, 3 * 4096} {
		lt := m.Leg(0, 1, bytes, 42*sim.Microsecond)
		want := cost.MessageLeg + sim.Duration(bytes)*cost.PerByte
		if lt.Total != want || lt.Queue != 0 {
			t.Fatalf("Leg(%d bytes) = %+v, want Total %v, Queue 0", bytes, lt, want)
		}
		xt := m.Exchange(0, 1, 24, bytes, 42*sim.Microsecond)
		wantX := cost.RoundTrip(24, bytes) + cost.RequestService
		if xt.Total() != wantX || xt.Queue() != 0 {
			t.Fatalf("Exchange(24, %d) total %v queue %v, want %v, 0",
				bytes, xt.Total(), xt.Queue(), wantX)
		}
	}
}

// TestUncontendedParity checks the occupancy decomposition: a single
// leg on an otherwise idle bus or switch costs exactly the ideal leg.
func TestUncontendedParity(t *testing.T) {
	cost := sim.DefaultCostModel()
	for _, name := range []string{"bus", "switch"} {
		m := mustNew(t, name)
		lt := m.Leg(0, 1, 4096, sim.Millisecond)
		want := cost.MessageLeg + 4096*cost.PerByte
		if lt.Total != want || lt.Queue != 0 {
			t.Fatalf("%s uncontended Leg = %+v, want Total %v, Queue 0", name, lt, want)
		}
	}
}

// TestBusSerialization checks the shared medium: two legs departing at
// the same virtual time must not overlap — the second waits out the
// first's full transmission, even between disjoint processor pairs.
func TestBusSerialization(t *testing.T) {
	cost := sim.DefaultCostModel()
	p := ParamsFromCost(cost)
	m := mustNew(t, "bus")
	at := sim.Millisecond
	first := m.Leg(0, 1, 4096, at)
	second := m.Leg(2, 3, 4096, at) // disjoint pair, same departure
	if first.Queue != 0 {
		t.Fatalf("first leg queued %v on an idle bus", first.Queue)
	}
	if want := p.txTime(4096); second.Queue != want {
		t.Fatalf("second leg queue = %v, want the first frame's transmission time %v",
			second.Queue, want)
	}
	if second.Total != first.Total+second.Queue {
		t.Fatalf("second leg total %v != first total %v + queue %v",
			second.Total, first.Total, second.Queue)
	}
}

// TestSwitchFullBisection checks the switch: disjoint pairs never
// interfere, while legs sharing a NIC port queue on it.
func TestSwitchFullBisection(t *testing.T) {
	m := mustNew(t, "switch")
	at := sim.Millisecond
	a := m.Leg(0, 1, 4096, at)
	b := m.Leg(2, 3, 4096, at) // disjoint: no shared port
	if a.Queue != 0 || b.Queue != 0 {
		t.Fatalf("disjoint pairs queued: %v, %v", a.Queue, b.Queue)
	}
	c := m.Leg(0, 4, 4096, at) // shares proc 0's egress with a
	if c.Queue == 0 {
		t.Fatal("legs sharing an egress port must queue")
	}
	d := m.Leg(5, 1, 4096, at) // shares proc 1's ingress with a
	if d.Queue == 0 {
		t.Fatal("legs sharing an ingress port must queue")
	}
}

// TestOutOfOrderSendsDoNotRatchet checks the timeline property the
// engine depends on: a leg whose virtual send time precedes an
// already-booked future frame slots into the idle gap before it
// instead of queuing behind it (processor clocks are skewed, so the
// pricing order is not sorted by virtual time).
func TestOutOfOrderSendsDoNotRatchet(t *testing.T) {
	for _, name := range []string{"bus", "switch"} {
		m := mustNew(t, name)
		if q := m.Leg(0, 1, 4096, 100*sim.Millisecond).Queue; q != 0 {
			t.Fatalf("%s: future frame queued %v", name, q)
		}
		if q := m.Leg(0, 1, 64, sim.Millisecond).Queue; q != 0 {
			t.Fatalf("%s: logically earlier frame queued %v behind the future", name, q)
		}
	}
}

// TestMonotonicity checks that on every registered model more bytes
// never cost less, for legs and for exchanges.
func TestMonotonicity(t *testing.T) {
	sizes := []int{0, 1, 64, 512, 4096, 4 * 4096}
	for _, name := range Names() {
		var prevLeg, prevX sim.Duration = -1, -1
		for _, bytes := range sizes {
			m := mustNew(t, name) // fresh occupancy state per size
			if got := m.Leg(0, 1, bytes, sim.Millisecond).Total; got < prevLeg {
				t.Fatalf("%s: Leg(%d bytes) = %v < previous %v", name, bytes, got, prevLeg)
			} else {
				prevLeg = got
			}
			m = mustNew(t, name)
			if got := m.Exchange(0, 1, 24, bytes, sim.Millisecond).Total(); got < prevX {
				t.Fatalf("%s: Exchange(%d bytes) = %v < previous %v", name, bytes, got, prevX)
			} else {
				prevX = got
			}
		}
	}
}

// TestResetClearsOccupancy checks that Reset returns a contended model
// to its freshly built pricing.
func TestResetClearsOccupancy(t *testing.T) {
	for _, name := range []string{"bus", "switch"} {
		m := mustNew(t, name)
		fresh := m.Leg(0, 1, 4096, sim.Millisecond)
		contended := m.Leg(0, 1, 4096, sim.Millisecond)
		if contended.Queue == 0 {
			t.Fatalf("%s: second identical leg must queue", name)
		}
		m.Reset()
		if again := m.Leg(0, 1, 4096, sim.Millisecond); again != fresh {
			t.Fatalf("%s: post-Reset leg %+v != fresh leg %+v", name, again, fresh)
		}
	}
}

// TestPresetsAreFaster checks the preset family's point: on a
// payload-heavy exchange every preset beats the calibrated platform.
func TestPresetsAreFaster(t *testing.T) {
	base := mustNew(t, "switch").Exchange(0, 1, 24, 4*4096, 0).Total()
	for _, name := range []string{"atm", "myrinet", "10gbe"} {
		got := mustNew(t, name).Exchange(0, 1, 24, 4*4096, 0).Total()
		if got >= base {
			t.Fatalf("%s exchange %v not faster than base platform %v", name, got, base)
		}
	}
}

// TestTimelineGapFilling exercises the reservation structure directly:
// bookings coalesce, gaps fill, and overflow forgets the oldest busy
// period first.
func TestTimelineGapFilling(t *testing.T) {
	var tl timeline
	// Book [10,20) then [30,40); a 10-long slot at 0 fits before both.
	if got := tl.reserve(10, 10); got != 10 {
		t.Fatalf("first booking at %v", got)
	}
	if got := tl.reserve(30, 10); got != 30 {
		t.Fatalf("second booking at %v", got)
	}
	if got := tl.reserve(0, 10); got != 0 {
		t.Fatalf("gap before all bookings: start %v, want 0", got)
	}
	// [0,20) now busy; a 10-long slot requested at 5 must wait for 20,
	// then [20,40) coalesces into one period.
	if got := tl.reserve(5, 10); got != 20 {
		t.Fatalf("overlapping request started at %v, want 20", got)
	}
	if iv := tl.intervals(t); len(iv) != 1 || iv[0] != (interval{start: 0, end: 40}) {
		t.Fatalf("timeline holds %v, want one coalesced period [0,40)", iv)
	}
	// A request inside a gap too small for it skips to the next gap.
	if got := tl.reserve(50, 5); got != 50 {
		t.Fatalf("booking at %v", got)
	}
	if got := tl.reserve(41, 20); got != 55 {
		t.Fatalf("slot too large for the [40,50) gap started at %v, want 55", got)
	}
}
