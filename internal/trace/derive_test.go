package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// priced is one pricing operation of a capture.
type priced struct {
	exchange, control bool
	kind, replyKind   simnet.MsgKind
	src, dst          int
	bytes, replyBytes int
	at                sim.Duration
}

func (e priced) emit(s trace.Sink) {
	switch {
	case e.exchange:
		s.TraceExchange(e.kind, e.replyKind, e.src, e.dst, e.bytes, e.replyBytes, e.at, netmodel.ExchangeTiming{})
	case e.control:
		s.TraceControl(e.kind, e.src, e.dst, e.bytes, e.at, 0)
	default:
		s.TraceLeg(e.kind, e.src, e.dst, e.bytes, e.at, 0)
	}
}

// virtualTimeOrder sits between the engine and a MemSink and hands the
// run's pricing operations over sorted by (send time, src, dst) when
// the run ends. The engine logs concurrent sends in the order the host
// scheduler let them reach the pricing lock, which differs from run to
// run; what was sent and when, on the stateless ideal network, does
// not. Sorting gives one capture per cell, whatever the host did.
type virtualTimeOrder struct {
	trace.Sink
	ops []priced
}

func (v *virtualTimeOrder) TraceLeg(kind simnet.MsgKind, src, dst, bytes int, at, _ sim.Duration) {
	v.ops = append(v.ops, priced{kind: kind, src: src, dst: dst, bytes: bytes, at: at})
}

func (v *virtualTimeOrder) TraceControl(kind simnet.MsgKind, src, dst, bytes int, at, _ sim.Duration) {
	v.ops = append(v.ops, priced{control: true, kind: kind, src: src, dst: dst, bytes: bytes, at: at})
}

func (v *virtualTimeOrder) TraceExchange(kind, replyKind simnet.MsgKind, src, dst, bytes, replyBytes int, at sim.Duration, _ netmodel.ExchangeTiming) {
	v.ops = append(v.ops, priced{exchange: true, kind: kind, replyKind: replyKind,
		src: src, dst: dst, bytes: bytes, replyBytes: replyBytes, at: at})
}

func (v *virtualTimeOrder) RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration) {
	sort.SliceStable(v.ops, func(i, j int) bool {
		a, b := v.ops[i], v.ops[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	for _, e := range v.ops {
		e.emit(v.Sink)
	}
	v.Sink.RunEnd(time, msgs, bytes, queue, clocks)
}

// TestDeriveGoldenTotals pins what the contended models compute, not
// only what they count: two barrier-structured cells captured on the
// ideal network, put in virtual-time order, and re-priced through every
// contended interconnect must give exactly the simulated time, queue
// delay, messages and bytes recorded before the occupancy timelines
// became block-structured. Any change to gap filling, coalescing or
// port assignment moves these numbers.
func TestDeriveGoldenTotals(t *testing.T) {
	golden := []struct {
		app, network string
		time, queue  sim.Duration
		msgs, bytes  int64
	}{
		{"jacobi", "bus", 70092820, 194331860, 294, 500952},
		{"jacobi", "switch", 63889640, 122220430, 294, 500952},
		{"jacobi", "atm", 51706637, 70227626, 294, 500952},
		{"jacobi", "myrinet", 22288626, 3497899, 294, 500952},
		{"jacobi", "10gbe", 19926550, 239285, 294, 500952},
		{"ilink", "bus", 179753105, 1741661345, 4574, 818420},
		{"ilink", "switch", 141743985, 206231900, 4574, 818420},
		{"ilink", "atm", 135668413, 163287356, 4574, 818420},
		{"ilink", "myrinet", 80854909, 28197560, 4574, 818420},
		{"ilink", "10gbe", 76068305, 9313760, 4574, 818420},
	}
	captures := map[string]*trace.MemSink{}
	for _, g := range golden {
		ms := captures[g.app]
		if ms == nil {
			e, ok := apps.Lookup(g.app, "small")
			if !ok {
				t.Fatalf("%s/small is not registered", g.app)
			}
			ms = trace.NewMemSink()
			cfg := tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal", Sink: &virtualTimeOrder{Sink: ms}}
			if _, err := apps.Run(e.Make(8), cfg); err != nil {
				t.Fatalf("%s/small: %v", g.app, err)
			}
			captures[g.app] = ms
		}
		d, err := ms.Derive(g.network)
		if err != nil {
			t.Fatalf("%s on %s: %v", g.app, g.network, err)
		}
		if d.Time != g.time || d.Queue != g.queue || d.Msgs != g.msgs || d.Bytes != g.bytes {
			t.Errorf("%s on %s: time %d queue %d msgs %d bytes %d, recorded %d %d %d %d",
				g.app, g.network, d.Time, d.Queue, d.Msgs, d.Bytes, g.time, g.queue, g.msgs, g.bytes)
		}
	}
}

// TestDeriveTiedLockRequests: processors 1 and 2 ask lock 0's manager
// for it at the same virtual time, so their requests arrive together;
// 1 finds the lock free and holds it, and 2 is forwarded to 1. Then 3's
// request arrives just when 2's forwarded request does, and is
// forwarded too. Derive must pair each forward with its own requester —
// not with the holder, and not with one forwarded before — on every
// network; the engine writes this stream whenever the host lets the
// second request in before the holder's grant.
func TestDeriveTiedLockRequests(t *testing.T) {
	cost := sim.DefaultCostModel()
	ideal, err := netmodel.New("ideal", cost)
	if err != nil {
		t.Fatal(err)
	}
	ctl := ideal.Leg(1, 0, 0, 0).Total    // a control leg, priced payload-free
	grant := ideal.Leg(0, 1, 16, 0).Total // a notice-free grant
	ms := trace.NewMemSink()
	ms.Begin(trace.RunMeta{Protocol: "homeless", Network: "ideal", Procs: 4})
	request := func(p int, at sim.Duration) {
		ms.LockRequest(p, 0, at)
		ms.TraceControl(simnet.LockRequest, p, 0, 16, at, 0)
	}
	forward := func(at sim.Duration) { ms.TraceControl(simnet.LockForward, 0, 1, 16, at, 0) }
	handOff := func(from, to int, at sim.Duration) sim.Duration {
		ms.TraceLeg(simnet.LockGrant, from, to, 16, at, 0)
		ms.LockRelease(to, 0, at+grant)
		return at + grant
	}
	request(1, 0)
	request(2, 0)
	forward(ctl)
	request(3, ctl)
	forward(2 * ctl)
	c1 := handOff(0, 1, ctl+cost.LockService)
	c2 := handOff(1, 2, c1+cost.LockService)
	c3 := handOff(2, 3, c2+cost.LockService)
	ms.RunEnd(c3, 8, 8*16, 0, []sim.Duration{0, c1, c2, c3})
	for _, network := range netmodel.Names() {
		if _, err := ms.Derive(network); err != nil {
			t.Errorf("%s: %v", network, err)
		}
	}
}

// jsonl writes the capture out in the interchange format.
func jsonl(ms *trace.MemSink) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := ms.EmitJSONL(w, "", ""); err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return &buf, nil
}

// TestRejectsOutOfRangeEndpoints corrupts one endpoint of one message
// event of a well-formed capture at a time. Derive and the JSONL
// decoder must each refuse it with an error — not panic, and not size
// a port table by the bogus id.
func TestRejectsOutOfRangeEndpoints(t *testing.T) {
	const procs = 4
	ops := []priced{
		{exchange: true, kind: simnet.DiffRequest, replyKind: simnet.DiffReply, src: 0, dst: 1, bytes: 32, replyBytes: 4096, at: 1000},
		{kind: simnet.HomeFlush, src: 1, dst: 2, bytes: 256, at: 2000},
		{control: true, kind: simnet.LockRequest, src: 2, dst: 3, bytes: 16, at: 3000},
	}
	build := func(ops []priced) *trace.MemSink {
		ms := trace.NewMemSink()
		ms.Begin(trace.RunMeta{Protocol: "homeless", Network: "ideal", Procs: procs})
		for _, e := range ops {
			e.emit(ms)
		}
		ms.RunEnd(9000, 4, 32+4096+256+16, 0, []sim.Duration{9000, 8000, 7000, 6000})
		return ms
	}
	replayers := []struct {
		name string
		run  func(ms *trace.MemSink) error
	}{
		{"Derive", func(ms *trace.MemSink) error { _, err := ms.Derive("switch"); return err }},
		{"ReadRuns", func(ms *trace.MemSink) error {
			buf, err := jsonl(ms)
			if err != nil {
				return err
			}
			runs, err := trace.ReadRuns(buf)
			if err != nil {
				return err
			}
			_, err = runs[0].Derive("switch")
			return err
		}},
	}
	for _, r := range replayers {
		if err := r.run(build(ops)); err != nil {
			t.Fatalf("%s refuses the well-formed capture: %v", r.name, err)
		}
	}
	for i, what := range []string{"xchg", "leg", "ctl"} {
		for _, bad := range []int{-1, procs, math.MaxInt32} {
			for _, end := range []string{"src", "dst"} {
				corrupted := append([]priced(nil), ops...)
				if end == "src" {
					corrupted[i].src = bad
				} else {
					corrupted[i].dst = bad
				}
				ms := build(corrupted)
				for _, r := range replayers {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := r.run(ms)
					runtime.ReadMemStats(&after)
					if err == nil {
						t.Errorf("%s accepted a %s event with %s = %d", r.name, what, end, bad)
					}
					if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
						t.Errorf("%s allocated %d bytes on a %s event with %s = %d", r.name, grew, what, end, bad)
					}
				}
			}
		}
	}
}
