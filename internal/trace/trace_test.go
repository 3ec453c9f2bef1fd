package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestEventRoundTrip pins the schema's wire round-trip: the golden
// file, one fully populated event of every type, must decode back to
// the events goldenRun wrote. The single-struct Event design makes
// plain equality the whole check.
func TestEventRoundTrip(t *testing.T) {
	f, err := os.Open("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != trace.Version {
		t.Fatalf("version = %d, want %d", r.Version(), trace.Version)
	}
	want := []trace.Event{
		{E: trace.EvRunStart, R: 1, RunMeta: trace.RunMeta{App: "Jacobi", Dataset: "small",
			Protocol: "adaptive", Network: "bus", Placement: "migrate",
			Procs: 8, UnitPages: 2, Dynamic: true,
			Barrier: "tree", BarrierRadix: 4, Cost: &goldenCost}},
		{E: trace.EvLeg, R: 1, K: "DiffRequest", S: 0, D: 1, B: 64, At: 100, Q: 7},
		{E: trace.EvControl, R: 1, K: "BarrierArrive", S: 1, D: 0, B: 16, At: 200, Q: 3},
		{E: trace.EvExchange, R: 1, K: "DiffRequest", RK: "DiffReply", S: 2, D: 3, B: 32, RB: 4096, At: 300, Q: 5, RQ: 9},
		{E: trace.EvBarrierEnter, R: 1, P: 4, At: 400},
		{E: trace.EvBarrierLeave, R: 1, P: 4, N: 2, At: 500},
		{E: trace.EvLockRequest, R: 1, P: 5, L: 3, At: 550},
		{E: trace.EvLockAcquire, R: 1, P: 5, L: 3, At: 600},
		{E: trace.EvLockRelease, R: 1, P: 5, L: 3, At: 700},
		{E: trace.EvFaultBegin, R: 1, P: 6, Pg: 42, U: 21, At: 800},
		{E: trace.EvFaultEnd, R: 1, P: 6, Pg: 42, At: 900},
		{E: trace.EvSwitch, R: 1, U: 7, FromName: "home", ToName: "homeless", N: 3},
		{E: trace.EvRehome, R: 1, U: 9, FromHome: 1, ToHome: 2, B: 8192, Transfer: true},
		{E: trace.EvRunEnd, R: 1, Time: 12345, Msgs: 678, Bytes: 90123, Queue: 456,
			Clocks: []sim.Duration{1, 2, 3, 4, 5, 6, 7, 12345}},
	}
	for i, wantEv := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !reflect.DeepEqual(*got, wantEv) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, *got, wantEv)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("trailing Next() error = %v, want io.EOF", err)
	}
}

// TestReaderToleratesUnknownFields pins forward compatibility: a trace
// written by a future same-major writer with extra fields must still
// parse, with the known fields intact.
func TestReaderToleratesUnknownFields(t *testing.T) {
	in := `{"e":"header","v":1,"written_by":"future"}
{"e":"run_start","r":1,"network":"ideal","procs":4,"shiny_new_field":[1,2,3]}
{"e":"leg","r":1,"k":"DiffRequest","s":0,"d":1,"b":64,"at":10,"q":0,"hw_timestamp":99}
{"e":"run_end","r":1,"msgs":1,"bytes":64}
`
	r, err := trace.NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var events []*trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[1].B != 64 || events[1].K != "DiffRequest" {
		t.Fatalf("leg fields lost: %+v", events[1])
	}
}

// TestReaderRejectsNewerVersion: an incompatible (higher-version)
// header must refuse loudly, not misparse.
func TestReaderRejectsNewerVersion(t *testing.T) {
	in := fmt.Sprintf(`{"e":"header","v":%d}`+"\n", trace.Version+1)
	if _, err := trace.NewReader(strings.NewReader(in)); err == nil {
		t.Fatal("want error for newer schema version")
	}
}

// failAfter fails every Write after the first n.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// TestWriterStickyError pins the partial-trace guard: once a write
// fails, Close (and Err) must report it, so callers cannot ship a
// silently truncated capture.
func TestWriterStickyError(t *testing.T) {
	w := trace.NewWriter(&failAfter{n: 2}) // header + run_start succeed
	s := w.Sink("", "")
	s.Begin(trace.RunMeta{Network: "ideal", Procs: 2})
	s.TraceLeg(simnet.DiffRequest, 0, 1, 64, 0, 0) // its line fails, sticks
	s.RunEnd(0, 1, 64, 0, []sim.Duration{0, 0})    // run_end dropped
	if err := w.Close(); err == nil {
		t.Fatal("Close() = nil after a failed write; partial traces must fail loudly")
	}
}

// TestRingWindow pins the flight recorder: a ring keeps the newest
// capacity events and no header line, counts evictions, and Dump writes
// a header so the window is always readable.
func TestRingWindow(t *testing.T) {
	ring := trace.NewRing(4)
	w := trace.NewWriter(ring)
	if ring.Len() != 0 {
		t.Fatalf("Len() = %d before any run, want 0: the ring holds events only", ring.Len())
	}
	s := w.Sink("", "")
	s.Begin(trace.RunMeta{Network: "ideal", Procs: 2})
	for i := 0; i < 10; i++ {
		s.TraceLeg(simnet.DiffRequest, 0, 1, 100+i, sim.Duration(i), 0)
	}
	s.RunEnd(10, 10, 1045, 0, []sim.Duration{10, 0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", ring.Len())
	}
	// 12 events written (run_start, 10 legs, run_end) minus 4 retained.
	if ring.Dropped() != 8 {
		t.Fatalf("Dropped() = %d, want 8", ring.Dropped())
	}

	var dump bytes.Buffer
	if err := ring.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatalf("dump must start with a readable header: %v", err)
	}
	var got []int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev.B)
	}
	want := []int{107, 108, 109, 0} // the newest three legs, oldest first, then run_end
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window bytes = %v, want %v", got, want)
	}
}
