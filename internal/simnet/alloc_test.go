package simnet

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// TestAllocBudgetCountsOnly pins the counts-only send paths at zero
// allocations: with no log retained and a stateless pricing model,
// recording a message is a handful of atomic adds — no Record is
// built, no lock is taken, nothing escapes.
func TestAllocBudgetCountsOnly(t *testing.T) {
	n := New(sim.DefaultCostModel(), WithCountsOnly())
	at := sim.Duration(0)
	if nAllocs := testing.AllocsPerRun(100, func() {
		n.SendLeg(HomeFlush, 0, 1, 256, at)
		n.SendControl(LockRequest, 0, 1, 16, at)
		n.SendExchange(DiffRequest, DiffReply, 0, 1, 32, 512, at)
		at += sim.Microsecond
	}); nAllocs != 0 {
		t.Errorf("counts-only sends: %v allocs/op, want 0", nAllocs)
	}
	msgs, bytes := n.Counts()
	if msgs == 0 || bytes == 0 {
		t.Fatalf("counts not maintained: %d msgs, %d bytes", msgs, bytes)
	}
	if len(n.Snapshot()) != 0 {
		t.Fatal("counts-only network retained records")
	}
}

// TestAllocBudgetContendedSends pins the engine's live pricing on the
// contended models: once a port's timeline has grown its slab, a
// counts-only send books its frames without allocating.
func TestAllocBudgetContendedSends(t *testing.T) {
	for _, name := range []string{"bus", "switch"} {
		m, err := netmodel.New(name, sim.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		n := NewWithModel(sim.DefaultCostModel(), m, WithCountsOnly())
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
			t.Errorf("%s: counts-only sends on warmed ports: %v allocs/op, want 0", name, nAllocs)
		}
	}
}

// TestCountsOnlyLockFree pins that the lock-free fast path engages
// exactly when it is sound: counts-only retention over a stateless
// model. A contended model keeps occupancy state, so its pricing must
// stay serialized even without a log.
func TestCountsOnlyLockFree(t *testing.T) {
	if n := New(sim.DefaultCostModel(), WithCountsOnly()); !n.lockFree {
		t.Error("ideal + counts-only: want lock-free sends")
	}
	if n := New(sim.DefaultCostModel()); n.lockFree {
		t.Error("full log: want locked sends")
	}
	m, err := netmodel.New("bus", sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if n := NewWithModel(sim.DefaultCostModel(), m, WithCountsOnly()); n.lockFree {
		t.Error("stateful model: want locked sends even counts-only")
	}
}

// BenchmarkSendExchange measures the per-exchange recording cost of
// the three retention modes; counts-only's lock-free path is the one
// the network- and placement-sensitivity sweeps run on.
func BenchmarkSendExchange(b *testing.B) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"full-log", nil},
		{"ring-1024", []Option{WithRecordCap(1024)}},
		{"counts-only", []Option{WithCountsOnly()}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			n := New(sim.DefaultCostModel(), m.opts...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.SendExchange(DiffRequest, DiffReply, 0, 1, 32, 512, sim.Duration(i))
			}
		})
	}
}
