package expsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// TestDerivedServing is the service half of the replay-derivation
// tentpole: an engine-backed server stores the compact capture of an
// eligible execution, and a later miss for the same spec on another
// network is answered by re-pricing that capture — Dsm-Cache: derived,
// no second engine run — with message and byte totals bit-identical to
// a real execution on the requested network.
func TestDerivedServing(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	base := `{"app":"jacobi","dataset":"small","procs":4,"network":"ideal"}`
	resp := postSpec(t, ts, base)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base run status %d: %s", resp.StatusCode, body)
	}
	if d := resp.Header.Get(HeaderCache); d != "miss" {
		t.Fatalf("base disposition %q, want miss", d)
	}
	if st := s.Stats(); st.TraceEntries != 1 || st.TraceBytes <= 0 {
		t.Fatalf("capture not stored after eligible run: %+v", st)
	}

	bus := `{"app":"jacobi","dataset":"small","procs":4,"network":"bus"}`
	dresp := postSpec(t, ts, bus)
	dbody := readBody(t, dresp)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("derived run status %d: %s", dresp.StatusCode, dbody)
	}
	if d := dresp.Header.Get(HeaderCache); d != "derived" {
		t.Fatalf("second-network disposition %q, want derived", d)
	}
	var drep harness.TrialsJSON
	if err := json.Unmarshal([]byte(dbody), &drep); err != nil {
		t.Fatalf("derived body decode: %v\n%s", err, dbody)
	}
	if !drep.Derived || drep.Network != "bus" || len(drep.Trials) != 1 {
		t.Fatalf("derived report = %+v", drep)
	}
	if drep.Trials[0].Network != "bus" {
		t.Fatalf("derived trial network %q", drep.Trials[0].Network)
	}

	// Ground truth: a fresh server with no stored capture executes the
	// bus cell for real. Messages and bytes must match bit-for-bit (the
	// stream is network-invariant for a replay-safe static-protocol
	// app); time carries the real run's goroutine-order wobble.
	_, ts2 := newTestServer(t, Config{})
	rresp := postSpec(t, ts2, bus)
	rbody := readBody(t, rresp)
	if d := rresp.Header.Get(HeaderCache); d != "miss" {
		t.Fatalf("fresh-server disposition %q, want miss", d)
	}
	var rrep harness.TrialsJSON
	if err := json.Unmarshal([]byte(rbody), &rrep); err != nil {
		t.Fatalf("real body decode: %v", err)
	}
	dt, rt := drep.Trials[0], rrep.Trials[0]
	if dt.Messages != rt.Messages || dt.Bytes != rt.Bytes {
		t.Fatalf("derived msgs/bytes %d/%d != real %d/%d",
			dt.Messages, dt.Bytes, rt.Messages, rt.Bytes)
	}
	if frac := math.Abs(dt.TimeSeconds-rt.TimeSeconds) / rt.TimeSeconds; frac > 0.05 {
		t.Fatalf("derived time %v vs real %v off by %.1f%%",
			dt.TimeSeconds, rt.TimeSeconds, 100*frac)
	}

	// The derived body entered the result cache; a repeat is a plain hit.
	again := postSpec(t, ts, bus)
	readBody(t, again)
	if d := again.Header.Get(HeaderCache); d != "hit" {
		t.Fatalf("repeat disposition %q, want hit", d)
	}

	st := s.Stats()
	if st.Derived != 1 || st.Runs != 1 {
		t.Fatalf("counters: derived %d runs %d, want 1 and 1: %+v", st.Derived, st.Runs, st)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, mresp)
	if got := metricValue(t, metrics, "dsmd_cache_derived_total"); got != 1 {
		t.Errorf("dsmd_cache_derived_total = %v, want 1", got)
	}
	if got := metricValue(t, metrics, "dsmd_trace_entries"); got != 1 {
		t.Errorf("dsmd_trace_entries = %v, want 1", got)
	}
}

// TestDerivedServingIneligible pins the fallback rule: a spec outside
// the derivable envelope (here trials > 1 — multi-trial statistics
// cannot be re-priced from one stream) always executes the engine,
// even when a same-family capture sits in the store.
func TestDerivedServingIneligible(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	readBody(t, postSpec(t, ts, `{"app":"jacobi","dataset":"small","procs":4,"network":"ideal"}`))
	resp := postSpec(t, ts, `{"app":"jacobi","dataset":"small","procs":4,"network":"bus","trials":2}`)
	readBody(t, resp)
	if d := resp.Header.Get(HeaderCache); d != "miss" {
		t.Fatalf("multi-trial disposition %q, want miss", d)
	}
	if st := s.Stats(); st.Derived != 0 || st.Runs != 2 {
		t.Fatalf("counters: %+v, want derived 0 runs 2", st)
	}
}

// TestDerivableAndTraceKey pins the eligibility predicate and the
// content address's network erasure.
func TestDerivableAndTraceKey(t *testing.T) {
	resolve := func(spec Spec) *Resolved {
		t.Helper()
		r, err := Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", spec, err)
		}
		return r
	}

	ideal := resolve(Spec{App: "jacobi", Dataset: "small", Network: "ideal"})
	busR := resolve(Spec{App: "jacobi", Dataset: "small", Network: "bus"})
	if !ideal.Derivable() || !busR.Derivable() {
		t.Fatal("replay-safe static single-trial specs must be derivable")
	}
	if ideal.TraceKey() != busR.TraceKey() {
		t.Fatal("TraceKey must erase the network field")
	}
	if ideal.Hash() == busR.Hash() {
		t.Fatal("result hashes must still distinguish networks")
	}
	other := resolve(Spec{App: "jacobi", Dataset: "small", Network: "ideal", Procs: 16})
	if other.TraceKey() == ideal.TraceKey() {
		t.Fatal("TraceKey must distinguish everything but the network")
	}

	for name, spec := range map[string]Spec{
		"schedule-sensitive app": {App: "tsp", Dataset: "small"},
		"adaptive protocol":      {App: "jacobi", Dataset: "small", Protocol: "adaptive"},
		"multi-trial":            {App: "jacobi", Dataset: "small", Trials: 2},
		"instrumented":           {App: "jacobi", Dataset: "small", Collect: true},
	} {
		if resolve(spec).Derivable() {
			t.Errorf("%s must not be derivable", name)
		}
	}
}

// TestTraceStoreBytes: the store is bounded by entries; heldBytes is
// what they hold, through additions, replacement and eviction, and
// Evictions counts the entries that fell off the bound.
func TestTraceStoreBytes(t *testing.T) {
	capture := func(events int) *trace.MemSink {
		ms := trace.NewMemSink()
		for i := 0; i < events; i++ {
			ms.BarrierEnter(0, 0)
		}
		return ms
	}
	small, large := capture(1), capture(5000)
	if large.Footprint() <= small.Footprint() || small.Footprint() <= 0 {
		t.Fatalf("footprints %d and %d", small.Footprint(), large.Footprint())
	}
	st := newTraceStore(2)
	st.Add("a", traceEntry{small, nil})
	st.Add("b", traceEntry{large, nil})
	if got, want := st.heldBytes(), small.Footprint()+large.Footprint(); got != want {
		t.Fatalf("two entries hold %d bytes, want %d", got, want)
	}
	st.Add("a", traceEntry{large, nil}) // replaced in place
	if got, want := st.heldBytes(), 2*large.Footprint(); got != want || st.Evictions() != 0 {
		t.Fatalf("after replacement %d bytes and %d evictions, want %d and 0", got, st.Evictions(), want)
	}
	st.Add("c", traceEntry{small, nil}) // evicts b, the least recently used
	if got, want := st.heldBytes(), large.Footprint()+small.Footprint(); got != want || st.Len() != 2 {
		t.Fatalf("after eviction %d bytes in %d entries, want %d in 2", got, st.Len(), want)
	}
	if st.Evictions() != 1 {
		t.Fatalf("Evictions = %d after one entry fell off, want 1", st.Evictions())
	}
}

// oracleDeriveBody is the derived answer as the service first built
// it: parse the stored run's marshaled report, rewrite its priced
// fields from the derivation, and marshal it again.
func oracleDeriveBody(base []byte, sink *trace.MemSink, network string) ([]byte, bool) {
	d, err := sink.Derive(network)
	if err != nil {
		return nil, false
	}
	var rep harness.TrialsJSON
	if err := json.Unmarshal(base, &rep); err != nil || len(rep.Trials) != 1 {
		return nil, false
	}
	rep.Network = network
	rep.Derived = true
	tr := &rep.Trials[0]
	tr.Network = network
	tr.TimeSeconds = d.Time.Seconds()
	tr.Messages = int(d.Msgs)
	tr.Bytes = int(d.Bytes)
	tr.QueueSeconds = d.Queue.Seconds()
	rep.MinTimeSeconds = tr.TimeSeconds
	rep.MeanTimeSeconds = tr.TimeSeconds
	rep.MaxTimeSeconds = tr.TimeSeconds
	rep.MeanMessages = float64(d.Msgs)
	rep.MeanBytes = float64(d.Bytes)
	rep.MeanQueueSeconds = tr.QueueSeconds
	body, err := json.Marshal(rep)
	return body, err == nil
}

// TestDeriveBodyMatchesOracle: reporting the stored engine result with
// its re-priced fields gives the same bytes as rewriting the stored
// body, for every replay-safe app's small dataset under both static
// protocols, derived onto every network but the base's.
func TestDeriveBodyMatchesOracle(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	checked := 0
	for _, app := range apps.Apps() {
		if !apps.ReplaySafe(app) {
			continue
		}
		for _, protocol := range []string{"homeless", "home"} {
			base, err := Resolve(Spec{App: app, Dataset: "small", Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			hash := base.Hash()
			body, err := s.execute(context.Background(), base, hash, quietLogger())
			if err != nil {
				t.Fatalf("%s/%s: %v", app, protocol, err)
			}
			ent, ok := s.traces.Get(base.TraceKey())
			if !ok {
				t.Fatalf("%s/%s: no capture stored", app, protocol)
			}
			for _, network := range netmodel.Names() {
				if network == base.Canonical().Network {
					continue
				}
				res, err := Resolve(Spec{App: app, Dataset: "small", Protocol: protocol, Network: network})
				if err != nil {
					t.Fatal(err)
				}
				got, ok := s.deriveBody(res)
				want, wantOK := oracleDeriveBody(body, ent.sink, network)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Errorf("%s/%s on %s: derived body\n%s\noracle (ok=%v)\n%s", app, protocol, network, got, wantOK, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d derived bodies checked", checked)
	if checked == 0 {
		t.Fatal("no replay-safe app was checked")
	}
}
