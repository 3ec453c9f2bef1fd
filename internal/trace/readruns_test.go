package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/netmodel"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// capture runs one real engine trial into a MemSink.
func capture(t testing.TB, app, dataset string, cfg tmk.Config) *trace.MemSink {
	t.Helper()
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		t.Fatalf("%s/%s is not registered", app, dataset)
	}
	ms := trace.NewMemSink()
	cfg.Sink = ms
	cfg.Collect = true
	if _, err := apps.RunTrials(e.Make(cfg.Procs), cfg, 1); err != nil {
		t.Fatalf("%s/%s: %v", app, dataset, err)
	}
	return ms
}

// readRuns decodes JSONL and requires every run to be ended.
func readRuns(t testing.TB, buf []byte) []*trace.MemSink {
	t.Helper()
	runs, err := trace.ReadRuns(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range runs {
		if !ms.Ended() {
			t.Fatalf("decoded run %d is not ended", i+1)
		}
	}
	return runs
}

// checkOwnNetwork derives a decoded run onto the model that captured it:
// it must reproduce the recorded time and totals bit-identically.
func checkOwnNetwork(t testing.TB, what string, ms *trace.MemSink) {
	t.Helper()
	d, err := ms.Derive(ms.Meta().Network)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	time, rec := ms.Recorded()
	if d.Time != time || d.Totals != rec {
		t.Fatalf("%s on its own %s: derived time %d %+v, recorded %d %+v",
			what, ms.Meta().Network, d.Time, d.Totals, time, rec)
	}
}

// TestReplayBitIdentical pins the format's load-bearing property: a
// JSONL capture decoded by ReadRuns and derived through the same network
// model reproduces the run's simulated time and its message, byte and
// queue-delay totals bit-identically — on the contention-free model and
// on both stateful (occupancy-tracking) models, for a barrier-structured
// app and a lock-heavy one, including adaptive protocol switching and
// home migration traffic.
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
			buf, err := jsonl(capture(t, tc.app, tc.dataset, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			runs := readRuns(t, buf.Bytes())
			if len(runs) != 1 {
				t.Fatalf("runs = %d, want 1", len(runs))
			}
			if _, rec := runs[0].Recorded(); rec.Msgs == 0 || rec.Bytes == 0 {
				t.Fatalf("empty capture: recorded %+v", rec)
			}
			checkOwnNetwork(t, name, runs[0])
		})
	}
}

// TestReplayAcrossNetworks: deriving a decoded capture onto a different
// model keeps the message and byte totals (the traffic is fixed by the
// capture) while the queue delay and the time change with the
// interconnect.
func TestReplayAcrossNetworks(t *testing.T) {
	buf, err := jsonl(capture(t, "jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal"}))
	if err != nil {
		t.Fatal(err)
	}
	ms := readRuns(t, buf.Bytes())[0]
	d, err := ms.Derive("bus")
	if err != nil {
		t.Fatal(err)
	}
	time, rec := ms.Recorded()
	if d.Network != "bus" {
		t.Fatalf("derived network = %q, want bus", d.Network)
	}
	if d.Msgs != rec.Msgs || d.Bytes != rec.Bytes {
		t.Fatalf("re-pricing changed the traffic itself:\n recorded %+v\n derived %+v", rec, d.Totals)
	}
	if d.Queue <= rec.Queue || d.Time <= time {
		t.Fatalf("bus derivation of an ideal capture should add queue delay and time; recorded %v/%v, derived %v/%v",
			rec.Queue, time, d.Queue, d.Time)
	}
}

// TestReplayRejectsTruncatedCapture: a run_start with no run_end is a
// partial trace and must fail, not derive to wrong totals — at the end
// of the file and where the next run starts.
func TestReplayRejectsTruncatedCapture(t *testing.T) {
	for _, in := range []string{`{"e":"header","v":1}
{"e":"run_start","r":1,"network":"ideal","procs":2}
{"e":"leg","r":1,"k":"DiffRequest","d":1,"b":64}
`, `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"ideal","procs":2}
{"e":"run_start","r":2,"network":"ideal","procs":2}
{"e":"run_end","r":2}
`} {
		_, err := trace.ReadRuns(strings.NewReader(in))
		if err == nil {
			t.Fatal("ReadRuns accepted a truncated capture")
		}
		if !strings.Contains(err.Error(), "truncated") || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("error should call out the truncation at line 3, got: %v", err)
		}
	}
}

// TestReplayRejectsMalformedInput: a trace is outside input. A
// processor count no engine runs, a negative payload, an endpoint
// outside the run, a run id out of place, or a value the capture
// cannot hold must be an error naming the offending line — never a
// port table sized by the bogus count, and never a negative price.
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
{"e":"leg","r":1,"k":"HomeFlush","s":1,"d":0,"b":-2000000000,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"negative reply payload", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"switch","procs":2}
{"e":"xchg","r":1,"k":"DiffRequest","rk":"DiffReply","s":1,"d":0,"b":8,"rb":-1,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"payload past 32 bits", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"leg","r":1,"k":"HomeFlush","s":1,"d":0,"b":4294967296,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"endpoint outside the run", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"ctl","r":1,"k":"LockRequest","s":2,"d":0,"b":8,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"lifecycle processor outside the run", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"barrier_enter","r":1,"p":-1,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"unknown message kind", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"leg","r":1,"k":"Gossip","s":1,"d":0,"b":8,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"unknown event type", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"teleport","r":1}
{"e":"run_end","r":1}
`, "line 3"},
		{"duplicate run", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"run_end","r":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"run_end","r":1}
`, "line 4"},
		{"unknown run", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"leg","r":2,"k":"HomeFlush","s":1,"d":0,"b":8,"at":5}
{"e":"run_end","r":1}
`, "line 3"},
		{"event after run_end", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"run_end","r":1}
{"e":"leg","r":1,"k":"HomeFlush","s":1,"d":0,"b":8,"at":5}
`, "line 4"},
		{"interleaved runs", `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"bus","procs":2}
{"e":"run_end","r":1}
{"e":"run_start","r":2,"network":"bus","procs":2}
{"e":"leg","r":1,"k":"HomeFlush","s":1,"d":0,"b":8,"at":5}
{"e":"run_end","r":2}
`, "line 5"},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := trace.ReadRuns(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
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

// TestDeriveRefusesCaptureWithoutClocks: a run_end written before it
// carried the final clocks decodes, but cannot be derived, and the
// refusal comes before Derive sizes anything by the run's processors.
func TestDeriveRefusesCaptureWithoutClocks(t *testing.T) {
	in := `{"e":"header","v":1}
{"e":"run_start","r":1,"network":"switch","procs":65536}
{"e":"run_end","r":1}
`
	runs := readRuns(t, []byte(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := runs[0].Derive("switch")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "final clocks") {
		t.Fatalf("Derive of a capture without final clocks: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("allocated %d bytes before refusing", grew)
	}
}

// TestReadRunsRoundTripsGolden: ReadRuns is EmitJSONL's inverse. The
// golden file, decoded and emitted again, must come back byte for byte.
func TestReadRunsRoundTripsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	runs := readRuns(t, want)
	if len(runs) != 1 {
		t.Fatalf("golden file decodes to %d runs, want 1", len(runs))
	}
	got, err := jsonl(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-emitted golden run differs:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// deriveCaptures are engine captures across every axis Derive
// reconstructs: the three protocols, three placements, both barrier
// fabrics, dynamic aggregation, 64 processors, the two lock-based apps,
// and four base networks.
var deriveCaptures = []struct {
	app, dataset string
	cfg          tmk.Config
}{
	{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal"}},
	{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus", Protocol: "adaptive", Placement: "migrate"}},
	{"jacobi", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus", Barrier: "tree"}},
	{"mgs", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal", Protocol: "home"}},
	{"mgs", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "switch", Dynamic: true}},
	{"shallow", "small", tmk.Config{Procs: 8, UnitPages: 2, Network: "myrinet", Protocol: "home", Placement: "firsttouch"}},
	{"3d-fft", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "switch", Protocol: "home", Barrier: "tree"}},
	{"ilink", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus", Protocol: "adaptive"}},
	{"barnes", "small", tmk.Config{Procs: 8, UnitPages: 4, Network: "ideal", Protocol: "home", Placement: "migrate"}},
	{"storm", "small", tmk.Config{Procs: 64, UnitPages: 1, Network: "bus", Barrier: "tree"}},
	{"tsp", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "ideal"}},
	{"tsp", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "switch", Protocol: "home"}},
	{"water", "small", tmk.Config{Procs: 8, UnitPages: 1, Network: "bus"}},
}

// TestReadRunsDeriveMatchesMemSink: JSONL loses nothing Derive reads.
// Every capture of deriveCaptures, written out and decoded, derives onto
// every network field for field as the in-memory capture does, and onto
// its own network to its recorded time and totals.
func TestReadRunsDeriveMatchesMemSink(t *testing.T) {
	for _, c := range deriveCaptures {
		name := fmt.Sprintf("%s/%s/%d/%s/%s/%s/%s", c.app, c.cfg.Network, c.cfg.Procs,
			c.cfg.Protocol, c.cfg.Placement, c.cfg.Barrier, map[bool]string{true: "dyn"}[c.cfg.Dynamic])
		ms := capture(t, c.app, c.dataset, c.cfg)
		buf, err := jsonl(ms)
		if err != nil {
			t.Fatal(err)
		}
		decoded := readRuns(t, buf.Bytes())
		if len(decoded) != 1 {
			t.Fatalf("%s: %d runs decoded, want 1", name, len(decoded))
		}
		if got, want := decoded[0].Meta(), ms.Meta(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded meta %+v, captured %+v", name, got, want)
		}
		checkOwnNetwork(t, name, decoded[0])
		for _, network := range netmodel.Names() {
			want, wantErr := ms.Derive(network)
			got, err := decoded[0].Derive(network)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: decoded %+v (%v), in memory %+v (%v)", name, network, got, err, want, wantErr)
			}
		}
	}
}

// TestSharedWriterKeepsRunsContiguous: two Systems trace two trials
// each into one Writer at the same time. Every run's lines must sit
// together in the stream, and every run must derive bit-identically on
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
			cfg := tmk.Config{Procs: 4, UnitPages: 1, Network: network, Sink: tw.Sink("", "")}
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
	for i, ms := range readRuns(t, buf.Bytes()) {
		checkOwnNetwork(t, fmt.Sprintf("run %d", i+1), ms)
	}
}

// FuzzReadRuns feeds ReadRuns arbitrary bytes and derives every run it
// decodes onto every network. Neither may panic or allocate more than
// a bounded amount per input byte (a port table sized by a corrupted
// processor count would), and the seeds — EmitJSONL output of real
// captures — must derive onto their own networks to their recorded
// time and totals.
func FuzzReadRuns(f *testing.F) {
	seeds := map[string]bool{}
	for _, c := range []struct {
		app string
		cfg tmk.Config
	}{
		{"jacobi", tmk.Config{Procs: 4, UnitPages: 1, Network: "ideal"}},
		{"jacobi", tmk.Config{Procs: 4, UnitPages: 1, Network: "switch", Barrier: "tree"}},
		{"tsp", tmk.Config{Procs: 4, UnitPages: 1, Network: "bus", Protocol: "home"}},
	} {
		buf, err := jsonl(capture(f, c.app, "small", c.cfg))
		if err != nil {
			f.Fatal(err)
		}
		seeds[buf.String()] = true
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs, err := trace.ReadRuns(bytes.NewReader(data))
		derived := make([][]*trace.Derived, len(runs))
		for i, ms := range runs {
			for _, network := range netmodel.Names() {
				if d, err := ms.Derive(network); err == nil {
					derived[i] = append(derived[i], d)
				}
			}
		}
		runtime.ReadMemStats(&after)
		// A run_start and one message line, about a hundred bytes, may
		// grow the switch's port tables to the largest processor count a
		// run may have: some 12 MB.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+(256<<10)*len(data)); grew > bound {
			t.Fatalf("decoding and deriving %d bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if !seeds[string(data)] {
			return
		}
		if err != nil {
			t.Fatalf("seed refused: %v", err)
		}
		for i, ms := range runs {
			if len(derived[i]) != len(netmodel.Names()) {
				t.Fatalf("seed run %d derives onto %d of %d networks", i+1, len(derived[i]), len(netmodel.Names()))
			}
			checkOwnNetwork(t, fmt.Sprintf("seed run %d", i+1), ms)
		}
	})
}
