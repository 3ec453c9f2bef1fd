package trace_test

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// own replays each run through the model that captured it.
var own = []string{""}

// capture runs one real engine trial traced through a Writer's sink
// and returns the captured stream.
func capture(t *testing.T, app, dataset string, cfg tmk.Config) *bytes.Buffer {
	t.Helper()
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		t.Fatalf("%s/%s is not registered", app, dataset)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	tw.SetLabel(e.App, e.Dataset)
	cfg.Sink = tw.Sink()
	cfg.Collect = true
	if _, err := apps.RunTrials(e.Make(cfg.Procs), cfg, 1); err != nil {
		t.Fatalf("%s/%s: %v", app, dataset, err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestReplayBitIdentical pins the format's load-bearing property: a
// capture replayed through the same network model reproduces the run's
// message, byte, and queue-delay totals bit-identically — on the
// contention-free model and on both stateful (occupancy-tracking)
// models, for a barrier-structured app and a lock-heavy one, including
// adaptive protocol switching and home migration traffic.
func TestReplayBitIdentical(t *testing.T) {
	cases := []struct {
		app, dataset string
		cfg          tmk.Config
	}{
		{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal"}},
		{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus"}},
		{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "switch"}},
		{"tsp", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus"}},
		{"tsp", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "switch",
			Protocol: "adaptive", Placement: "migrate"}},
	}
	for _, tc := range cases {
		name := tc.app + "/" + tc.cfg.Network
		if tc.cfg.Protocol != "" {
			name += "/" + tc.cfg.Protocol
		}
		t.Run(name, func(t *testing.T) {
			buf := capture(t, tc.app, tc.dataset, tc.cfg)
			runs, err := trace.Replay(bytes.NewReader(buf.Bytes()), own)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 {
				t.Fatalf("runs = %d, want 1", len(runs))
			}
			r := runs[0]
			if r.Recorded.Msgs == 0 || r.Recorded.Bytes == 0 {
				t.Fatalf("empty capture: recorded %+v", r.Recorded)
			}
			if r.Networks[0] != r.Meta.Network || !r.Matches() {
				t.Fatalf("same-model replay diverged on %s:\n recorded %+v\n replayed %+v",
					r.Networks[0], r.Recorded, r.Replayed[0])
			}
		})
	}
}

// TestReplayAcrossNetworks: re-pricing a capture through a different
// model keeps the message and byte totals (the traffic is fixed by the
// capture) while the queue delay changes with the interconnect.
func TestReplayAcrossNetworks(t *testing.T) {
	buf := capture(t, "jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal"})
	runs, err := trace.Replay(bytes.NewReader(buf.Bytes()), []string{"bus"})
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if r.Networks[0] != "bus" {
		t.Fatalf("replay network = %q, want bus", r.Networks[0])
	}
	got := r.Replayed[0]
	if got.Msgs != r.Recorded.Msgs || got.Bytes != r.Recorded.Bytes {
		t.Fatalf("re-pricing changed the traffic itself:\n recorded %+v\n replayed %+v", r.Recorded, got)
	}
	if got.Queue <= r.Recorded.Queue {
		t.Fatalf("bus re-pricing of an ideal capture should add queue delay; recorded %v, replayed %v",
			r.Recorded.Queue, got.Queue)
	}
}

// TestReplayRejectsTruncatedCapture: a run_start with no run_end is a
// partial trace and must fail, not replay to wrong totals.
func TestReplayRejectsTruncatedCapture(t *testing.T) {
	in := `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"ideal","procs":2}
{"e":"leg","r":1,"k":"DiffRequest","d":1,"b":64}
`
	_, err := trace.Replay(strings.NewReader(in), own)
	if err == nil {
		t.Fatal("Replay accepted a truncated capture")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error should call out the truncation, got: %v", err)
	}
}

// TestReplayRejectsMalformedInput: a trace is outside input. A
// processor count no engine runs, or a negative payload, must be an
// error naming the offending line — never a port table sized by the
// bogus count, and never a negative price.
func TestReplayRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name, in, line string
	}{
		{"two billion processors", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"switch","procs":2000000000}
{"e":"leg","r":1,"s":1999999999,"d":0,"b":10,"at":5}
{"e":"run_end","r":1}
`, "line 2"},
		{"no processors", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus"}
{"e":"run_end","r":1}
`, "line 2"},
		{"negative payload", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"leg","r":1,"s":1,"d":0,"b":-2000000000,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"negative reply payload", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"switch","procs":2}
{"e":"xchg","r":1,"s":1,"d":0,"b":8,"rb":-1,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
	}
	for _, tc := range cases {
		for _, networks := range [][]string{own, nil} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := trace.Replay(strings.NewReader(tc.in), networks)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s (networks %q): accepted", tc.name, networks)
				continue
			}
			if !strings.Contains(err.Error(), tc.line) {
				t.Errorf("%s: error should name %s, got: %v", tc.name, tc.line, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s: allocated %d bytes before refusing", tc.name, grew)
			}
		}
	}
}

// TestReplayAllMatchesPerModelReplay: the single-pass multi-model sweep
// must produce, per network, exactly the totals a dedicated pass
// through that model produces — including the bit-identity check on
// the capture's own model.
func TestReplayAllMatchesPerModelReplay(t *testing.T) {
	buf := capture(t, "jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus"})
	sweeps, err := trace.Replay(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(sweeps))
	}
	s := sweeps[0]
	if len(s.Networks) != len(netmodel.Names()) {
		t.Fatalf("sweep covered %d networks, want all %d", len(s.Networks), len(netmodel.Names()))
	}
	if !s.Matches() {
		t.Fatalf("same-model row diverged from recorded totals: %+v", s)
	}
	for i, network := range s.Networks {
		runs, err := trace.Replay(bytes.NewReader(buf.Bytes()), []string{network})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Replayed[i], runs[0].Replayed[0]; got != want {
			t.Errorf("%s: sweep totals %+v != dedicated replay %+v", network, got, want)
		}
	}
}

// TestSharedWriterKeepsRunsContiguous: two Systems trace two trials
// each into one Writer at the same time. Every run's lines must sit
// together in the stream, and every run must replay bit-identically on
// its own model. Under -race this is also the test that the Writer's
// sinks share nothing but the Writer.
func TestSharedWriterKeepsRunsContiguous(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	var wg sync.WaitGroup
	for _, network := range []string{"bus", "switch"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := tmk.Config{Procs: 4, UnitPages: 1, Network: network, Sink: tw.Sink()}
			if _, err := apps.RunTrials(e.Make(4), cfg, 2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	done := map[int64]bool{}
	var cur int64
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		if ev.R != cur {
			if done[ev.R] || (cur != 0 && !done[cur]) {
				t.Fatalf("run %d's lines interleave with run %d's", ev.R, cur)
			}
			cur = ev.R
		}
		if ev.E == trace.EvRunEnd {
			done[ev.R] = true
		}
	}
	if len(done) != 4 {
		t.Fatalf("stream holds %d complete runs, want 4", len(done))
	}
	runs, err := trace.Replay(bytes.NewReader(buf.Bytes()), own)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if !run.Matches() {
			t.Errorf("run %d on %s: recorded %+v, replayed %+v", run.ID, run.Meta.Network, run.Recorded, run.Replayed[0])
		}
	}
}

// pricedCapture records n messages of a 4-processor run, each priced
// through a fresh model of the named network as the engine would have,
// so that the capture's recorded totals are what replay must rebuild.
func pricedCapture(t testing.TB, network string, n int) *trace.MemSink {
	const procs = 4
	cost := sim.DefaultCostModel()
	model, err := netmodel.New(network, cost)
	if err != nil {
		t.Fatal(err)
	}
	ms := trace.NewMemSink()
	ms.Begin(trace.RunMeta{Protocol: "homeless", Network: network, Procs: procs, Cost: &cost})
	var tot trace.Totals
	for i := 0; i < n; i++ {
		src, dst, at := i%procs, (i+1)%procs, sim.Duration(i)*sim.Microsecond
		switch i % 3 {
		case 0:
			x := model.Exchange(src, dst, 32, 4096, at)
			ms.TraceExchange(simnet.DiffRequest, simnet.DiffReply, src, dst, 32, 4096, at, x)
			tot.Msgs, tot.Bytes, tot.Queue = tot.Msgs+2, tot.Bytes+32+4096, tot.Queue+x.Request.Queue+x.Reply.Queue
		case 1:
			q := model.Leg(src, dst, 256, at).Queue
			ms.TraceLeg(simnet.HomeFlush, src, dst, 256, at, q)
			tot.Msgs, tot.Bytes, tot.Queue = tot.Msgs+1, tot.Bytes+256, tot.Queue+q
		default:
			q := model.Leg(src, dst, 0, at).Queue
			ms.TraceControl(simnet.LockRequest, src, dst, 16, at, q)
			tot.Msgs, tot.Bytes, tot.Queue = tot.Msgs+1, tot.Bytes+16, tot.Queue+q
		}
	}
	ms.RunEnd(sim.Duration(n)*sim.Microsecond, tot.Msgs, tot.Bytes, tot.Queue, make([]sim.Duration, procs))
	return ms
}

// FuzzReplay feeds Replay arbitrary bytes. It must never panic, never
// allocate more than a bounded amount per input byte (a port table
// sized by a corrupted processor count would), and must replay the
// well-formed seeds — EmitJSONL output — to their recorded totals.
func FuzzReplay(f *testing.F) {
	seeds := map[string]bool{}
	for _, network := range []string{"ideal", "bus", "switch"} {
		buf, err := jsonl(pricedCapture(f, network, 12))
		if err != nil {
			f.Fatal(err)
		}
		seeds[buf.String()] = true
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs, err := trace.Replay(bytes.NewReader(data), own)
		runtime.ReadMemStats(&after)
		// A run_start and one message line, about a hundred bytes, may
		// grow the switch's port tables to the largest processor count a
		// run may have: some 12 MB.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+(256<<10)*len(data)); grew > bound {
			t.Fatalf("replaying %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if !seeds[string(data)] {
			return
		}
		if err != nil {
			t.Fatalf("seed refused: %v", err)
		}
		for _, r := range runs {
			if !r.Matches() {
				t.Fatalf("seed run %d: recorded %+v, replayed %+v", r.ID, r.Recorded, r.Replayed[0])
			}
		}
	})
}
