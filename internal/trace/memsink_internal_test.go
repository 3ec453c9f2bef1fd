package trace

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestResetAndReleaseSpareAnOpenReader: a walk holds windows into the
// sink's blocks without its lock. Reset and Release while one is open
// must let go of those blocks, not refill or recycle them.
func TestResetAndReleaseSpareAnOpenReader(t *testing.T) {
	for _, release := range []bool{false, true} {
		ms := NewMemSink()
		fill := func(tag int) {
			ms.Begin(RunMeta{Network: "ideal", Procs: 2})
			for i := 0; i < blockEvents+3; i++ {
				ms.TraceExchange(simnet.DiffRequest, simnet.DiffReply, 0, 1, tag, tag, sim.Duration(i), netmodel.ExchangeTiming{})
			}
			ms.RunEnd(0, 0, 0, 0, []sim.Duration{0, 0})
		}
		fill(7)
		s, err := ms.read("test")
		if err != nil {
			t.Fatal(err)
		}
		if release {
			ms.Release()
		} else {
			ms.Reset()
		}
		// The refill, and another sink drawing on the pool, write 9s.
		fill(9)
		other := NewMemSink()
		other.TraceExchange(simnet.DiffRequest, simnet.DiffReply, 0, 1, 9, 9, 0, netmodel.ExchangeTiming{})
		n := 0
		for _, ev := range s.wins {
			for i := range ev.op {
				n++
				if ev.nb[i] != 7 {
					t.Fatalf("release=%v: event %d of the open walk was overwritten (%d)", release, n, ev.nb[i])
				}
			}
		}
		if n != blockEvents+3 {
			t.Fatalf("release=%v: open walk sees %d events", release, n)
		}
		ms.readDone()
		if ms.readers != 0 {
			t.Fatalf("release=%v: %d readers after readDone", release, ms.readers)
		}
	}
}
