package trace_test

import (
	"bytes"
	"fmt"
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

// TestMemSinkEmitJSONLParity pins the bridge between the two capture
// paths: one engine run observed by a live JSONL writer and a MemSink
// simultaneously (the tee), then the MemSink emitted as JSONL, must
// produce byte-identical streams. MemSink is the fast capture path;
// this is the proof it loses nothing the interchange format carries.
func TestMemSinkEmitJSONLParity(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	var live bytes.Buffer
	tw := trace.NewWriter(&live)
	ms := trace.NewMemSink()
	cfg := tmk.Config{Procs: 4, Protocol: "homeless", Network: "bus", Trace: tw, Sink: ms}
	if _, err := apps.RunTrials(e.Make(4), cfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !ms.Ended() {
		t.Fatal("MemSink capture not closed by RunEnd")
	}

	var emitted bytes.Buffer
	ew := trace.NewWriter(&emitted)
	if err := ms.EmitJSONL(ew); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), emitted.Bytes()) {
		t.Fatalf("EmitJSONL stream differs from the live capture:\nlive    %d bytes\nemitted %d bytes",
			live.Len(), emitted.Len())
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
	if err := ms.EmitJSONL(gw); err != nil {
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
// the flat-column buffer it replaced behind one Tee, over engine runs
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
		cfg.Procs, cfg.UnitPages, cfg.Sink = c.procs, 1, trace.Tee(ms, ref)
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
		exchanges(trace.Tee(ms, ref), n)
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
				if _, err := trace.ReplayEvents(ms, "bus"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
