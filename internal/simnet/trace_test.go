package simnet

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// recSink is a TraceSink double accumulating what it observes.
type recSink struct {
	legs, ctls, xchgs int
	bytes             int64
	queue             sim.Duration
}

func (s *recSink) TraceLeg(kind MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.legs++
	s.bytes += int64(bytes)
	s.queue += queue
}

func (s *recSink) TraceControl(kind MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.ctls++
	s.bytes += int64(bytes)
	s.queue += queue
}

func (s *recSink) TraceExchange(reqKind, repKind MsgKind, src, dst, reqBytes, replyBytes int, at sim.Duration, t netmodel.ExchangeTiming) {
	s.xchgs++
	s.bytes += int64(reqBytes) + int64(replyBytes)
	s.queue += t.Request.Queue + t.Reply.Queue
}

// TestTraceSinkObservesEveryPricedMessage pins the capture invariant on
// a stateful model: the sink sees each pricing operation with the exact
// bytes and queue delay the network accounted, so the sink's sums equal
// the network's totals.
func TestTraceSinkObservesEveryPricedMessage(t *testing.T) {
	cost := sim.DefaultCostModel()
	m, err := netmodel.New("bus", cost)
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithModel(cost, m)
	sink := &recSink{}
	n.SetTraceSink(sink)
	n.SendLeg(DiffRequest, 0, 1, 64, 0)
	n.SendControl(BarrierArrive, 1, 0, 16, 10)
	n.SendExchange(DiffRequest, DiffReply, 2, 3, 32, 4096, 20)
	n.SetTraceSink(nil)

	if sink.legs != 1 || sink.ctls != 1 || sink.xchgs != 1 {
		t.Fatalf("sink saw legs=%d ctls=%d xchgs=%d, want 1 each", sink.legs, sink.ctls, sink.xchgs)
	}
	msgs, bytes := n.Counts()
	if msgs != 4 {
		t.Fatalf("messages = %d, want 4 (leg + control + exchange pair)", msgs)
	}
	if sink.bytes != int64(bytes) {
		t.Fatalf("sink bytes = %d, network bytes = %d", sink.bytes, bytes)
	}
	if sink.queue != n.QueueTotal() {
		t.Fatalf("sink queue = %v, network queue = %v", sink.queue, n.QueueTotal())
	}
}

// TestTraceSinkForcesLockedPath: installing a sink must take the
// ideal network's fast path off lock-free mode (emission order must
// match pricing order), and removing it must restore the fast path.
func TestTraceSinkForcesLockedPath(t *testing.T) {
	n := New(sim.DefaultCostModel())
	if !n.lockFree {
		t.Fatal("ideal network should start lock-free")
	}
	sink := &recSink{}
	n.SetTraceSink(sink)
	if n.lockFree {
		t.Fatal("installed sink must disable the lock-free send path")
	}
	n.SendLeg(DiffRequest, 0, 1, 64, 0)
	if sink.legs != 1 {
		t.Fatalf("sink saw %d legs on the ideal network, want 1", sink.legs)
	}
	n.SetTraceSink(nil)
	if !n.lockFree {
		t.Fatal("removing the sink must restore the lock-free send path")
	}
}
