package dsm

import (
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// dataCountingSink is a trace capture that also counts the data
// messages (diff requests and replies) the network priced.
type dataCountingSink struct {
	*trace.MemSink
	data int
}

func (s *dataCountingSink) TraceLeg(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.data += dataMsgs(kind)
	s.MemSink.TraceLeg(kind, src, dst, bytes, at, queue)
}

func (s *dataCountingSink) TraceControl(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	s.data += dataMsgs(kind)
	s.MemSink.TraceControl(kind, src, dst, bytes, at, queue)
}

func (s *dataCountingSink) TraceExchange(reqKind, repKind simnet.MsgKind, src, dst, reqBytes, repBytes int, at sim.Duration, t netmodel.ExchangeTiming) {
	s.data += dataMsgs(reqKind) + dataMsgs(repKind)
	s.MemSink.TraceExchange(reqKind, repKind, src, dst, reqBytes, repBytes, at, t)
}

func dataMsgs(k simnet.MsgKind) int {
	if k.IsData() {
		return 1
	}
	return 0
}

// TestStatsFromCounts checks on real runs the precondition of the
// count-based §5.3 classification — every data message belongs to
// exactly one registered exchange — and that the classified totals are
// the network's: every registered application's small dataset under
// every protocol, at 4 KB, 16 KB and dynamic units, on the ideal and bus
// networks, at 8 processors. The identities hold run by run, so the
// lock applications are checked exactly too.
func TestStatsFromCounts(t *testing.T) {
	units := []struct {
		name    string
		pages   int
		dynamic bool
	}{{"4K", 1, false}, {"16K", 4, false}, {"Dyn", 1, true}}
	for _, app := range apps.Apps() {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small not registered", app)
		}
		for _, protocol := range []string{"homeless", "home", "adaptive"} {
			for _, u := range units {
				for _, network := range []string{"ideal", "bus"} {
					t.Run(app+"/"+protocol+"/"+u.name+"/"+network, func(t *testing.T) {
						t.Parallel()
						sink := &dataCountingSink{MemSink: trace.NewMemSink()}
						defer sink.Release()
						w := e.Make(8)
						sys, err := apps.NewSystem(w, tmk.Config{
							Procs: 8, Protocol: protocol, UnitPages: u.pages, Dynamic: u.dynamic,
							Network: network, Collect: true, Sink: sink,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer sys.Release()
						res := sys.Run(w.Body)
						if err := w.Check(); err != nil {
							t.Fatal(err)
						}
						st := res.Stats
						if sink.data != 2*st.Exchanges {
							t.Errorf("%d data messages, want 2 × %d exchanges", sink.data, st.Exchanges)
						}
						if st.Messages.Total() != res.Messages {
							t.Errorf("classified %d messages, network sent %d", st.Messages.Total(), res.Messages)
						}
						if st.TotalWireBytes != res.Bytes {
							t.Errorf("classified %d wire bytes, network sent %d", st.TotalWireBytes, res.Bytes)
						}
					})
				}
			}
		}
	}
}
