package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// fanOut hands every event to each of its sinks in turn, under one lock
// so that they all see the lifecycle events, which arrive from the
// processor goroutines, in one order: two captures of one run.
type fanOut struct {
	mu    sync.Mutex
	sinks []trace.Sink
}

func (f *fanOut) each(fn func(trace.Sink)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sinks {
		fn(s)
	}
}

func (f *fanOut) Begin(m trace.RunMeta) { f.each(func(s trace.Sink) { s.Begin(m) }) }
func (f *fanOut) TraceLeg(k simnet.MsgKind, src, dst, b int, at, q sim.Duration) {
	f.each(func(s trace.Sink) { s.TraceLeg(k, src, dst, b, at, q) })
}
func (f *fanOut) TraceControl(k simnet.MsgKind, src, dst, b int, at, q sim.Duration) {
	f.each(func(s trace.Sink) { s.TraceControl(k, src, dst, b, at, q) })
}
func (f *fanOut) TraceExchange(k, rk simnet.MsgKind, src, dst, b, rb int, at sim.Duration, x netmodel.ExchangeTiming) {
	f.each(func(s trace.Sink) { s.TraceExchange(k, rk, src, dst, b, rb, at, x) })
}
func (f *fanOut) BarrierEnter(p int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.BarrierEnter(p, at) })
}
func (f *fanOut) BarrierLeave(p, n int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.BarrierLeave(p, n, at) })
}
func (f *fanOut) LockRequest(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockRequest(p, l, at) })
}
func (f *fanOut) LockAcquire(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockAcquire(p, l, at) })
}
func (f *fanOut) LockRelease(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockRelease(p, l, at) })
}
func (f *fanOut) FaultBegin(p, pg, u int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.FaultBegin(p, pg, u, at) })
}
func (f *fanOut) FaultEnd(p, pg int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.FaultEnd(p, pg, at) })
}
func (f *fanOut) ProtocolSwitch(u int, from, to string, n int) {
	f.each(func(s trace.Sink) { s.ProtocolSwitch(u, from, to, n) })
}
func (f *fanOut) Rehome(u, from, to, b int, tr bool) {
	f.each(func(s trace.Sink) { s.Rehome(u, from, to, b, tr) })
}
func (f *fanOut) RunEnd(time sim.Duration, msgs, b int64, q sim.Duration, clocks []sim.Duration) {
	f.each(func(s trace.Sink) { s.RunEnd(time, msgs, b, q, clocks) })
}

// goldenCost is the cost calibration the golden run records.
var goldenCost = sim.DefaultCostModel()

// goldenRun pushes the fixed sequence behind testdata/events.golden.jsonl
// into s: a run_start with cost, barrier and radix, one event of each
// of the twelve kinds (an exchange, a switch and a transferring rehome
// among them) and run_end.
func goldenRun(s trace.Sink) {
	s.Begin(trace.RunMeta{
		Protocol: "adaptive", Network: "bus", Placement: "migrate",
		Procs: 8, UnitPages: 2, Dynamic: true,
		Barrier: "tree", BarrierRadix: 4, Cost: &goldenCost,
	})
	s.TraceLeg(simnet.DiffRequest, 0, 1, 64, 100, 7)
	s.TraceControl(simnet.BarrierArrive, 1, 0, 16, 200, 3)
	s.TraceExchange(simnet.DiffRequest, simnet.DiffReply, 2, 3, 32, 4096, 300,
		netmodel.ExchangeTiming{
			Request: netmodel.Timing{Total: 50, Queue: 5},
			Reply:   netmodel.Timing{Total: 90, Queue: 9},
			Service: 30,
		})
	s.BarrierEnter(4, 400)
	s.BarrierLeave(4, 2, 500)
	s.LockRequest(5, 3, 550)
	s.LockAcquire(5, 3, 600)
	s.LockRelease(5, 3, 700)
	s.FaultBegin(6, 42, 21, 800)
	s.FaultEnd(6, 42, 900)
	s.ProtocolSwitch(7, "home", "homeless", 3)
	s.Rehome(9, 1, 2, 8192, true)
	s.RunEnd(12345, 678, 90123, 456, []sim.Duration{1, 2, 3, 4, 5, 6, 7, 12345})
}

// TestMemSinkEmitJSONLParity pins the JSONL schema: the golden file
// holds the bytes the engine's former live writer produced for
// goldenRun, and a MemSink capture of the same sequence, emitted, must
// reproduce them byte for byte.
func TestMemSinkEmitJSONLParity(t *testing.T) {
	want, err := os.ReadFile("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	ms := trace.NewMemSink()
	goldenRun(ms)
	var got bytes.Buffer
	w := trace.NewWriter(&got)
	if err := ms.EmitJSONL(w, "Jacobi", "small"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("emitted JSONL differs from the golden file:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestMemSinkAllocBudget pins the capture path's cost model: once a
// reused MemSink's columns have grown to the run's working size, Reset
// plus a full re-capture of the same event mix performs zero heap
// allocations. This is what makes Sink-captured engine runs cheap
// enough for the derived-sweep base cells.
func TestMemSinkAllocBudget(t *testing.T) {
	ms := trace.NewMemSink()
	fill := func() {
		ms.Reset()
		ms.Begin(trace.RunMeta{Protocol: "homeless", Network: "bus", Procs: 4})
		for i := 0; i < 4096; i++ {
			p := i % 4
			ms.BarrierEnter(p, sim.Duration(i))
			ms.TraceLeg(simnet.DiffRequest, p, (p+1)%4, 128, sim.Duration(i), 3)
			ms.TraceControl(simnet.BarrierArrive, p, 0, 16, sim.Duration(i), 0)
			ms.TraceExchange(simnet.DiffRequest, simnet.DiffReply, p, (p+2)%4, 32, 4096,
				sim.Duration(i), netmodel.ExchangeTiming{})
			ms.FaultBegin(p, i%64, i%16, sim.Duration(i))
			ms.FaultEnd(p, i%64, sim.Duration(i))
			ms.BarrierLeave(p, i, sim.Duration(i))
		}
		ms.RunEnd(sim.Duration(1<<20), 4096, 1<<22, 512, []sim.Duration{1, 2, 3, 4})
	}
	fill() // size the columns
	if allocs := testing.AllocsPerRun(5, fill); allocs > 0 {
		t.Errorf("steady-state MemSink re-capture: %v allocs/run, want 0", allocs)
	}
}

// sameCapture holds a block-layout capture against the flat reference
// that saw the same events: length, recorded totals, the JSONL bytes,
// and a derivation on every registered network, refusals included. It
// returns how many networks the capture derived on.
func sameCapture(t *testing.T, name string, ms *trace.MemSink, ref *trace.RefSink) (derived int) {
	t.Helper()
	if ms.Len() != ref.Len() {
		t.Fatalf("%s: %d events, reference %d", name, ms.Len(), ref.Len())
	}
	mt, mtot := ms.Recorded()
	rt, rtot := ref.Recorded()
	if mt != rt || mtot != rtot {
		t.Errorf("%s: recorded %d %+v, reference %d %+v", name, mt, mtot, rt, rtot)
	}
	var got, want bytes.Buffer
	gw, ww := trace.NewWriter(&got), trace.NewWriter(&want)
	if err := ms.EmitJSONL(gw, "", ""); err != nil {
		t.Fatalf("%s: EmitJSONL: %v", name, err)
	}
	if err := ref.EmitJSONL(ww); err != nil {
		t.Fatalf("%s: reference EmitJSONL: %v", name, err)
	}
	if gw.Close() != nil || ww.Close() != nil {
		t.Fatalf("%s: closing the JSONL writers failed", name)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: JSONL differs from the reference (%d vs %d bytes)", name, got.Len(), want.Len())
	}
	for _, network := range netmodel.Names() {
		d, err := ms.Derive(network)
		rd, rerr := ref.Derive(network)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Errorf("%s on %s: error %v, reference %v", name, network, err, rerr)
			continue
		}
		if err == nil {
			derived++
			if !reflect.DeepEqual(d, rd) {
				t.Errorf("%s on %s: derived %+v, reference %+v", name, network, d, rd)
			}
		}
	}
	return derived
}

// TestBlockLayoutMatchesReference runs the block-structured MemSink and
// the flat-column buffer it replaced behind one fanOut, over engine runs
// (central and tree barriers, locks in Ilink's pool) and over synthetic
// captures whose lengths sit on the block boundaries.
func TestBlockLayoutMatchesReference(t *testing.T) {
	cells := []struct {
		app   string
		procs int
		cfg   tmk.Config
	}{
		{"jacobi", 4, tmk.Config{Protocol: "homeless", Network: "bus"}},
		{"ilink", 8, tmk.Config{Protocol: "homeless", Network: "ideal"}},
		{"ilink", 8, tmk.Config{Protocol: "adaptive", Network: "bus"}},
		{"jacobi", 8, tmk.Config{Protocol: "home", Network: "ideal", Barrier: "tree"}},
	}
	for _, c := range cells {
		e, ok := apps.Lookup(c.app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", c.app)
		}
		ms, ref := trace.NewMemSink(), trace.NewRefSink()
		cfg := c.cfg
		cfg.Procs, cfg.UnitPages, cfg.Sink = c.procs, 1, &fanOut{sinks: []trace.Sink{ms, ref}}
		if _, err := apps.Run(e.Make(c.procs), cfg); err != nil {
			t.Fatalf("%s/small: %v", c.app, err)
		}
		name := fmt.Sprintf("%s/small p%d %s %s %s", c.app, c.procs, cfg.Protocol, cfg.Network, cfg.Barrier)
		if ms.Len() <= trace.BlockEvents && c.app == "ilink" {
			t.Errorf("%s: %d events do not span two blocks", name, ms.Len())
		}
		if n := sameCapture(t, name, ms, ref); n != len(netmodel.Names()) {
			t.Errorf("%s: derived on %d of %d networks", name, n, len(netmodel.Names()))
		}
	}

	for _, n := range []int{0, 1, trace.BlockEvents - 1, trace.BlockEvents, trace.BlockEvents + 1, 3 * trace.BlockEvents} {
		ms, ref := trace.NewMemSink(), trace.NewRefSink()
		exchanges(&fanOut{sinks: []trace.Sink{ms, ref}}, n)
		name := fmt.Sprintf("%d synthetic exchanges", n)
		if got := sameCapture(t, name, ms, ref); got != len(netmodel.Names()) {
			t.Errorf("%s: derived on %d of %d networks", name, got, len(netmodel.Names()))
		}
		// The next capture is built in this one's used blocks.
		ms.Release()
		if ms.Len() != 0 || ms.Ended() || ms.Footprint() != 0 {
			t.Errorf("%s: released sink still holds %d events, %d bytes, ended=%v", name, ms.Len(), ms.Footprint(), ms.Ended())
		}
		if _, err := ms.Derive("bus"); err == nil {
			t.Errorf("%s: a released sink derived", name)
		}
	}
}

// exchanges records n well-formed exchanges of a 4-processor run on the
// ideal network and closes the capture.
func exchanges(s trace.Sink, n int) {
	const procs = 4
	s.Begin(trace.RunMeta{Protocol: "homeless", Network: "ideal", Procs: procs})
	clocks := make([]sim.Duration, procs)
	var end sim.Duration
	for i := 0; i < n; i++ {
		p := i % procs
		at := sim.Duration(i) * sim.Microsecond
		s.TraceExchange(simnet.DiffRequest, simnet.DiffReply, p, (p+1)%procs, 32, 4096, at, netmodel.ExchangeTiming{})
		clocks[p] = at + sim.Millisecond
		end = clocks[p]
	}
	s.RunEnd(end, int64(2*n), int64(n)*(32+4096), 0, clocks)
}

// TestMemSinkFreshCaptureBudget pins what the block layout is for: a
// fresh sink allocates one object per block plus a handful (the sink,
// its name table, the block list as it doubles, the final clocks, the
// block pool's own first-use tables), and
// barely more bytes than it ends up holding. The append-grown columns
// it replaced allocated about 5.5 times their final size.
func TestMemSinkFreshCaptureBudget(t *testing.T) {
	const n = 10*trace.BlockEvents + 7
	var ms *trace.MemSink
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objs := testing.AllocsPerRun(4, func() {
		ms = trace.NewMemSink()
		exchanges(ms, n)
	})
	runtime.ReadMemStats(&after)
	blocks := (n + trace.BlockEvents - 1) / trace.BlockEvents
	if objs > float64(blocks+12) {
		t.Errorf("capturing %d events allocated %v objects, want at most %d blocks + 12", n, objs, blocks)
	}
	held := uint64(ms.Footprint())
	// AllocsPerRun made five captures: a warm-up and four counted.
	if got := (after.TotalAlloc - before.TotalAlloc) / 5; got > held+held/10 {
		t.Errorf("capturing %d events allocated %d bytes for a %d-byte capture", n, got, held)
	}
	if ms.Len() != n || held < n*47 {
		t.Errorf("%d events in %d bytes", ms.Len(), held)
	}
}

// TestConcurrentDerive: an ended capture is immutable, so derivations
// of it run side by side without the sink's lock. Under -race this is
// the test that they share nothing they write.
func TestConcurrentDerive(t *testing.T) {
	ms := trace.NewMemSink()
	exchanges(ms, 5*trace.BlockEvents/2)
	want, err := ms.Derive("switch")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := ms.Derive("switch")
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent derivation %+v, alone %+v", got, want)
				}
				if err := ms.EmitJSONL(trace.NewWriter(io.Discard), "", ""); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
