package simnet

import (
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestCounts(t *testing.T) {
	n := New(sim.DefaultCostModel())
	n.SendLeg(DiffRequest, 0, 1, 10, 0)
	n.SendLeg(DiffReply, 1, 0, 20, 0)
	n.SendLeg(BarrierArrive, 2, 0, 5, 0)
	msgs, bytes := n.Counts()
	if msgs != 3 || bytes != 35 {
		t.Fatalf("Counts = %d msgs, %d bytes", msgs, bytes)
	}
	byKind := n.CountsByKind()
	if byKind[DiffRequest].Messages != 1 || byKind[DiffReply].Bytes != 20 {
		t.Fatalf("CountsByKind = %v", byKind)
	}
}

// Concurrent senders lose no message on either send path: the
// lock-free one (ideal) and the locked one (bus).
func TestConcurrentSendsAreAllRecorded(t *testing.T) {
	for _, name := range []string{"ideal", "bus"} {
		m, err := netmodel.New(name, sim.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		n := NewWithModel(sim.DefaultCostModel(), m)
		const procs, per = 8, 200
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					n.SendLeg(DiffRequest, p, (p+1)%procs, 8, sim.Duration(i)*sim.Microsecond)
				}
			}(p)
		}
		wg.Wait()
		msgs, bytes := n.Counts()
		if msgs != procs*per || bytes != procs*per*8 {
			t.Fatalf("%s: Counts = %d, %d", name, msgs, bytes)
		}
	}
}

func TestSendLegRecordsTimingAndTotals(t *testing.T) {
	cost := sim.DefaultCostModel()
	n := New(cost)
	timing := n.SendLeg(BarrierArrive, 2, 0, 16, 3*sim.Millisecond)
	if want := cost.MessageLeg + 16*cost.PerByte; timing.Total != want || timing.Queue != 0 {
		t.Fatalf("ideal leg timing = %+v, want Total %v, Queue 0", timing, want)
	}
	if msgs, bytes := n.Counts(); msgs != 1 || bytes != 16 {
		t.Fatalf("Counts = %d, %d", msgs, bytes)
	}
	if q := n.QueueTotal(); q != 0 {
		t.Fatalf("QueueTotal = %v on ideal", q)
	}
}

func TestSendControlPricesPayloadFree(t *testing.T) {
	cost := sim.DefaultCostModel()
	n := New(cost)
	timing := n.SendControl(LockRequest, 1, 0, 16, 0)
	if timing.Total != cost.MessageLeg {
		t.Fatalf("control leg = %v, want bare MessageLeg %v", timing.Total, cost.MessageLeg)
	}
	if _, bytes := n.Counts(); bytes != 16 {
		t.Fatalf("control message bytes = %d, want the wire size 16", bytes)
	}
}

func TestSendExchangeRecordsBothLegs(t *testing.T) {
	cost := sim.DefaultCostModel()
	n := New(cost)
	xt := n.SendExchange(DiffRequest, DiffReply, 3, 5, 24, 4096, sim.Millisecond)
	if want := cost.RoundTrip(24, 4096) + cost.RequestService; xt.Total() != want {
		t.Fatalf("exchange total = %v, want ideal %v", xt.Total(), want)
	}
	if msgs, bytes := n.Counts(); msgs != 2 || bytes != 24+4096 {
		t.Fatalf("Counts = %d, %d", msgs, bytes)
	}
	byKind := n.CountsByKind()
	if byKind[DiffRequest] != (KindCount{1, 24}) || byKind[DiffReply] != (KindCount{1, 4096}) {
		t.Fatalf("CountsByKind = %v", byKind)
	}
}

// TestRunningTotalsMatchTrace checks the running totals against a
// per-message recount of what a trace sink observed, across all send
// paths on a contended model.
func TestRunningTotalsMatchTrace(t *testing.T) {
	m, err := netmodel.New("bus", sim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithModel(sim.DefaultCostModel(), m)
	sink := &kindSink{perKind: make(map[MsgKind]KindCount)}
	n.SetTraceSink(sink)
	n.SendLeg(BarrierArrive, 0, 1, 5, 0)
	n.SendLeg(HomeFlush, 1, 2, 100, sim.Millisecond)
	n.SendControl(LockRequest, 2, 0, 16, sim.Millisecond)
	n.SendExchange(DiffRequest, DiffReply, 0, 2, 24, 512, 2*sim.Millisecond)
	n.SendExchange(DiffRequest, DiffReply, 1, 2, 24, 4096, 2*sim.Millisecond)
	n.SetTraceSink(nil)
	var msgs, bytes int
	for _, c := range sink.perKind {
		msgs += c.Messages
		bytes += c.Bytes
	}
	gotMsgs, gotBytes := n.Counts()
	if gotMsgs != msgs || gotBytes != bytes {
		t.Fatalf("Counts = %d, %d; recount = %d, %d", gotMsgs, gotBytes, msgs, bytes)
	}
	byKind := n.CountsByKind()
	if len(byKind) != len(sink.perKind) {
		t.Fatalf("CountsByKind = %v, recount = %v", byKind, sink.perKind)
	}
	for k, want := range sink.perKind {
		if byKind[k] != want {
			t.Fatalf("CountsByKind[%v] = %v, want %v", k, byKind[k], want)
		}
	}
	if n.QueueTotal() != sink.queue {
		t.Fatalf("QueueTotal = %v, recount = %v", n.QueueTotal(), sink.queue)
	}
}

// kindSink recounts every traced message per kind.
type kindSink struct {
	perKind map[MsgKind]KindCount
	queue   sim.Duration
}

func (s *kindSink) add(kind MsgKind, bytes int, queue sim.Duration) {
	c := s.perKind[kind]
	c.Messages++
	c.Bytes += bytes
	s.perKind[kind] = c
	s.queue += queue
}

func (s *kindSink) TraceLeg(kind MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.add(kind, bytes, queue)
}

func (s *kindSink) TraceControl(kind MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.add(kind, bytes, queue)
}

func (s *kindSink) TraceExchange(reqKind, repKind MsgKind, src, dst, reqBytes, replyBytes int, at sim.Duration, t netmodel.ExchangeTiming) {
	s.add(reqKind, reqBytes, t.Request.Queue)
	s.add(repKind, replyBytes, t.Reply.Queue)
}

func TestKindStringAndIsData(t *testing.T) {
	if DiffRequest.String() != "DiffRequest" || BarrierRelease.String() != "BarrierRelease" {
		t.Fatal("kind names")
	}
	if MsgKind(99).String() != "MsgKind(99)" {
		t.Fatal("unknown kind name")
	}
	if !DiffRequest.IsData() || !DiffReply.IsData() {
		t.Fatal("diff messages are data")
	}
	for _, k := range []MsgKind{LockRequest, LockForward, LockGrant, BarrierArrive, BarrierRelease} {
		if k.IsData() {
			t.Fatalf("%v must not be data", k)
		}
	}
}

// WithCountsOnly is a no-op: the totals are exact either way.
func TestCountsOnly(t *testing.T) {
	for _, n := range []*Network{New(sim.DefaultCostModel()), New(sim.DefaultCostModel(), WithCountsOnly())} {
		n.SendLeg(DiffRequest, 0, 1, 10, 0)
		n.SendExchange(DiffRequest, DiffReply, 0, 1, 16, 100, 0)
		n.SendLeg(HomeFlush, 2, 0, 50, 0)
		msgs, bytes := n.Counts()
		if msgs != 4 || bytes != 10+16+100+50 {
			t.Fatalf("totals drifted: %d msgs, %d bytes", msgs, bytes)
		}
		if byKind := n.CountsByKind(); byKind[HomeFlush].Bytes != 50 || byKind[DiffRequest].Messages != 2 {
			t.Fatalf("CountsByKind = %v", byKind)
		}
	}
}
