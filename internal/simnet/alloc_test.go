package simnet

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// TestAllocBudgetCountsOnly pins the lock-free send paths at zero
// allocations: on a stateless pricing model with no trace sink,
// sending a message is a handful of atomic adds — no lock is taken,
// nothing escapes.
func TestAllocBudgetCountsOnly(t *testing.T) {
	n := New(sim.DefaultCostModel())
	at := sim.Duration(0)
	if nAllocs := testing.AllocsPerRun(100, func() {
		n.SendLeg(HomeFlush, 0, 1, 256, at)
		n.SendControl(LockRequest, 0, 1, 16, at)
		n.SendExchange(DiffRequest, DiffReply, 0, 1, 32, 512, at)
		at += sim.Microsecond
	}); nAllocs != 0 {
		t.Errorf("lock-free sends: %v allocs/op, want 0", nAllocs)
	}
	msgs, bytes := n.Counts()
	if msgs == 0 || bytes == 0 {
		t.Fatalf("counts not maintained: %d msgs, %d bytes", msgs, bytes)
	}
}

// TestAllocBudgetContendedSends pins the engine's live pricing on the
// contended models: once a port's timeline has grown its slab, a
// send books its frames without allocating.
func TestAllocBudgetContendedSends(t *testing.T) {
	for _, name := range []string{"bus", "switch"} {
		m, err := netmodel.New(name, sim.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		n := NewWithModel(sim.DefaultCostModel(), m)
		at := sim.Duration(0)
		send := func() {
			n.SendLeg(HomeFlush, 0, 1, 256, at)
			n.SendExchange(DiffRequest, DiffReply, 2, 1, 32, 4096, at)
			at += sim.Millisecond // no overlap: every frame is a new busy period
		}
		for i := 0; i < 8192; i++ {
			send()
		}
		if nAllocs := testing.AllocsPerRun(1000, send); nAllocs != 0 {
			t.Errorf("%s: sends on warmed ports: %v allocs/op, want 0", name, nAllocs)
		}
	}
}

// TestCountsOnlyLockFree pins that the lock-free fast path engages
// exactly when it is sound: a stateless model and no trace sink. A
// contended model keeps occupancy state, so its pricing must stay
// serialized; a sink must observe pricing order (see
// TestTraceSinkForcesLockedPath).
func TestCountsOnlyLockFree(t *testing.T) {
	if n := New(sim.DefaultCostModel()); !n.lockFree {
		t.Error("ideal: want lock-free sends")
	}
	if n := New(sim.DefaultCostModel(), WithCountsOnly()); !n.lockFree {
		t.Error("ideal + WithCountsOnly: want lock-free sends")
	}
	m, err := netmodel.New("bus", sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if n := NewWithModel(sim.DefaultCostModel(), m); n.lockFree {
		t.Error("stateful model: want locked sends")
	}
}

// BenchmarkSendExchange measures the per-exchange cost of the two send
// paths: the lock-free one on the stateless ideal model, and the locked
// one on the contended bus.
func BenchmarkSendExchange(b *testing.B) {
	for _, name := range []string{"ideal", "bus"} {
		b.Run(name, func(b *testing.B) {
			m, err := netmodel.New(name, sim.DefaultCostModel())
			if err != nil {
				b.Fatal(err)
			}
			n := NewWithModel(sim.DefaultCostModel(), m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.SendExchange(DiffRequest, DiffReply, 0, 1, 32, 512, sim.Duration(i))
			}
		})
	}
}
