package expsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// countingRunner is a Runner double that counts engine executions and
// can block until released, so tests can pin the coalescing and caching
// invariants exactly.
type countingRunner struct {
	execs   atomic.Int32
	block   chan struct{} // non-nil: execution waits here (or for ctx)
	started chan struct{} // receives one value per execution start
}

func (c *countingRunner) run(r *Resolved, ctx context.Context, _ trace.Sink) (*tmk.TrialSummary, error) {
	c.execs.Add(1)
	if c.started != nil {
		c.started <- struct{}{}
	}
	if c.block != nil {
		select {
		case <-c.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return tmk.Summarize([]*tmk.Result{{Network: r.Canonical().Network}}), nil
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// The tentpole invariant: N identical concurrent POSTs observe exactly
// one engine execution, and the stats counters corroborate it.
func TestRunCoalescingInvariant(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{})}
	s, ts := newTestServer(t, Config{Runner: runner.run})

	const callers = 4
	var wg sync.WaitGroup
	dispositions := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSpec(t, ts, `{"app":"jacobi","network":"bus"}`)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			dispositions <- resp.Header.Get(HeaderCache)
		}()
	}

	// Wait until every request has either started the flight or joined
	// it, then release the single execution.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Misses == callers && st.Coalesced == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(runner.block)
	wg.Wait()
	close(dispositions)

	if got := runner.execs.Load(); got != 1 {
		t.Fatalf("engine executed %d times for %d identical concurrent requests, want 1", got, callers)
	}
	var miss, coalesced int
	for d := range dispositions {
		switch d {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("unexpected disposition %q", d)
		}
	}
	if miss != 1 || coalesced != callers-1 {
		t.Fatalf("dispositions: %d miss, %d coalesced; want 1 and %d", miss, coalesced, callers-1)
	}
	st := s.Stats()
	if st.Runs != 1 || st.Hits != 0 || st.Misses != callers || st.Coalesced != callers-1 {
		t.Fatalf("stats do not corroborate coalescing: %+v", st)
	}
}

// A repeated spec is served from cache with zero additional engine
// executions — and a differently spelled but canonically equal spec
// hits the same cell.
func TestRunCacheHitAndCanonicalEquivalence(t *testing.T) {
	runner := &countingRunner{}
	s, ts := newTestServer(t, Config{Runner: runner.run})

	first := postSpec(t, ts, `{"app":"jacobi"}`)
	readBody(t, first)
	if first.Header.Get(HeaderCache) != "miss" {
		t.Fatalf("first request disposition %q", first.Header.Get(HeaderCache))
	}
	hash := first.Header.Get(HeaderCell)
	if len(hash) != 64 {
		t.Fatalf("cell hash %q", hash)
	}

	second := postSpec(t, ts, `{"app":"jacobi"}`)
	readBody(t, second)
	if second.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("repeat disposition %q, want hit", second.Header.Get(HeaderCache))
	}

	// Explicitly spelled defaults (different JSON, same canonical spec)
	// must hit the same cell.
	explicit := postSpec(t, ts, `{"app":"Jacobi","dataset":"128x512 (row=1pg)","unit_pages":1,`+
		`"protocol":"homeless","network":"ideal","placement":"rr","procs":8,"trials":1}`)
	readBody(t, explicit)
	if explicit.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("explicit-defaults disposition %q, want hit", explicit.Header.Get(HeaderCache))
	}
	if got := explicit.Header.Get(HeaderCell); got != hash {
		t.Fatalf("explicit-defaults cell %s != %s", got, hash)
	}

	if got := runner.execs.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want 1 (repeats must be cache hits)", got)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Runs != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats do not corroborate caching: %+v", st)
	}
}

func TestCellLookup(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Runner: runner.run})

	resp := postSpec(t, ts, `{"app":"water"}`)
	want := readBody(t, resp)
	hash := resp.Header.Get(HeaderCell)

	got, err := http.Get(ts.URL + "/v1/cells/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cells/%s: %d", hash, got.StatusCode)
	}
	if body := readBody(t, got); body != want {
		t.Fatalf("cell body differs from run body:\n%s\nvs\n%s", body, want)
	}

	missing, err := http.Get(ts.URL + "/v1/cells/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing cell status %d, want 404", missing.StatusCode)
	}
	readBody(t, missing)
}

func TestRunValidationErrors(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Runner: runner.run})

	for _, tc := range []struct {
		name, spec, field string
	}{
		{"unknown app", `{"app":"nosuch"}`, "app"},
		{"unknown dataset", `{"app":"jacobi","dataset":"zzz"}`, "dataset"},
		{"unknown protocol", `{"app":"jacobi","protocol":"zzz"}`, "protocol"},
		{"unknown network", `{"app":"jacobi","network":"zzz"}`, "network"},
		{"dynamic multi-page", `{"app":"jacobi","dynamic":true,"unit_pages":4}`, "unit_pages"},
		{"radix 1", `{"app":"jacobi","barrier":"tree","barrier_radix":1}`, "barrier_radix"},
		{"excess trials", fmt.Sprintf(`{"app":"jacobi","trials":%d}`, MaxTrials+1), "trials"},
	} {
		resp := postSpec(t, ts, tc.spec)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, body)
			continue
		}
		if e.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (%s)", tc.name, e.Field, tc.field, body)
		}
	}

	// Unknown JSON fields and malformed bodies are 400s, not silent drops.
	for _, bad := range []string{`{"app":"jacobi","bogus":1}`, `{app:}`, ``} {
		resp := postSpec(t, ts, bad)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// So are the adaptive knobs, which are engine constants now: a spec
	// that names one is refused by name, not run on the constant.
	for _, knob := range []string{"adapt_hysteresis", "adapt_queue_gate_us"} {
		resp := postSpec(t, ts, fmt.Sprintf(`{"app":"jacobi",%q:3}`, knob))
		var e errorJSON
		body := readBody(t, resp)
		want := fmt.Sprintf("unknown field %q", knob)
		if err := json.Unmarshal([]byte(body), &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
			t.Errorf("%s: status %d, body %s; want 400 saying %s", knob, resp.StatusCode, body, want)
		}
	}

	// Wrong method on /v1/run.
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %d, want 405", resp.StatusCode)
	}

	if runner.execs.Load() != 0 {
		t.Fatalf("invalid specs reached the engine %d times", runner.execs.Load())
	}
}

func TestRegistryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: (&countingRunner{}).run})
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var got RegistryJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &got); err != nil {
		t.Fatalf("registry decode: %v", err)
	}
	// The endpoint serves exactly the shared helper's document — the
	// same one dsmrun -list -json prints.
	want := Registry()
	gw, _ := json.Marshal(got)
	ww, _ := json.Marshal(want)
	if !bytes.Equal(gw, ww) {
		t.Fatalf("registry endpoint drifted from expsvc.Registry():\n%s\nvs\n%s", gw, ww)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: (&countingRunner{}).run})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// An aborted request cancels the (sole-waiter) engine run: the flight
// context ends, the runner returns, and the run slot frees.
func TestRunClientCancellation(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := newTestServer(t, Config{Runner: runner.run})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"app":"jacobi"}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-runner.started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	// The abandoned run aborts (ctx path in the runner) and the slot
	// frees; the error is counted, nothing is cached.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.RunErrors == 1 && st.InFlightRuns == 0 {
			if st.Runs != 0 || st.CacheEntries != 0 {
				t.Fatalf("abandoned run was cached: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned run never aborted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// The run pool bounds simultaneous engine executions.
func TestRunPoolBound(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s, ts := newTestServer(t, Config{Runner: runner.run, MaxConcurrentRuns: 1})

	var wg sync.WaitGroup
	for _, spec := range []string{`{"app":"jacobi"}`, `{"app":"water"}`} {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			readBody(t, postSpec(t, ts, spec))
		}(spec)
	}
	<-runner.started // one run holds the only slot
	// The second distinct spec must queue, not run.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n := s.Stats().InFlightRuns; n > 1 {
			t.Fatalf("in-flight runs %d exceed pool of 1", n)
		}
		if runner.execs.Load() == 2 {
			t.Fatal("second run started while the first held the only slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(runner.block)
	wg.Wait()
	if runner.execs.Load() != 2 {
		t.Fatalf("execs = %d, want 2", runner.execs.Load())
	}
}

// Graceful drain: Shutdown stops the listener but lets the in-flight
// run finish and its response reach the client.
func TestGracefulShutdownDrain(t *testing.T) {
	runner := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	svc := New(Config{Runner: runner.run, Logger: quietLogger()})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc}
	serveDone := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(serveDone) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   string
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json",
			strings.NewReader(`{"app":"jacobi"}`))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- result{status: resp.StatusCode, body: string(b)}
	}()
	<-runner.started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// The listener must refuse new work while the old request drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := http.Get(base + "/healthz")
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight run finished", err)
	default:
	}

	close(runner.block)
	r := <-resCh
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("drained request: status %d err %v", r.status, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-serveDone
}

// End to end through the real engine: the response body is exactly the
// CLI's report type, and determinism makes the repeat a byte-identical
// cache hit.
func TestEngineEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no Runner: the real engine

	spec := `{"app":"jacobi","dataset":"small","procs":4,"trials":2}`
	resp := postSpec(t, ts, spec)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep harness.TrialsJSON
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("report decode: %v\n%s", err, body)
	}
	if rep.App != "Jacobi" || rep.Dataset != "small" || rep.Procs != 4 || len(rep.Trials) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Protocol != "homeless" || rep.Network != "ideal" || rep.Placement != "rr" {
		t.Fatalf("defaults not resolved: %+v", rep)
	}
	if rep.MinTimeSeconds <= 0 || rep.MinTimeSeconds != rep.MaxTimeSeconds {
		t.Fatalf("trial times not deterministic-positive: min %v max %v",
			rep.MinTimeSeconds, rep.MaxTimeSeconds)
	}

	again := postSpec(t, ts, spec)
	againBody := readBody(t, again)
	if again.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("repeat disposition %q, want hit", again.Header.Get(HeaderCache))
	}
	if againBody != body {
		t.Fatal("cached body differs from the original run")
	}

	// The run went through the page recycler: its first trial had to
	// allocate, its second took what the first one's reset handed back,
	// and the released System left pages listed.
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition := readBody(t, metrics)
	for _, name := range []string{"dsmd_pagepool_hits_total", "dsmd_pagepool_misses_total", "dsmd_pagepool_pages"} {
		if metricValue(t, exposition, name) == 0 {
			t.Errorf("%s is zero after an engine run", name)
		}
	}
	metricValue(t, exposition, "dsmd_pagepool_drops_total") // present; zero is fine
}

// TestRunMatchesServedBody: the CLI path (Resolve, Run, Report) and
// /v1/run produce the same report, byte for byte once marshaled.
func TestRunMatchesServedBody(t *testing.T) {
	spec := Spec{App: "jacobi", Dataset: "small", Collect: true, Trials: 2}
	res, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := res.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Report(ts))
	if err != nil {
		t.Fatal(err)
	}

	_, srv := newTestServer(t, Config{})
	resp := postSpec(t, srv, `{"app":"jacobi","dataset":"small","collect":true,"trials":2}`)
	if got := readBody(t, resp); got != string(want) {
		t.Fatalf("served body differs from the CLI report:\n%s\nvs\n%s", got, want)
	}
}

// TestSubstituteRunnerStoresNoCapture: a runner that ignores its sink
// leaves no capture to store (even for a derivable spec) and writes
// nothing to the flight recorder.
func TestSubstituteRunnerStoresNoCapture(t *testing.T) {
	ring := trace.NewRing(1 << 10)
	runner := &countingRunner{}
	s, ts := newTestServer(t, Config{Runner: runner.run, Flight: ring})
	for _, spec := range []string{
		`{"app":"jacobi","dataset":"small"}`,            // derivable: offered a capture
		`{"app":"jacobi","dataset":"small","trials":2}`, // offered the flight sink
	} {
		resp := postSpec(t, ts, spec)
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", spec, resp.StatusCode, body)
		}
	}
	if n := runner.execs.Load(); n != 2 {
		t.Fatalf("runner ran %d times, want 2", n)
	}
	if st := s.Stats(); st.TraceEntries != 0 || st.TraceBytes != 0 {
		t.Errorf("substitute runs stored a capture: %+v", st)
	}
	if n := ring.Len(); n != 0 {
		t.Errorf("flight ring gained %d lines from substitute runs, want 0", n)
	}
}
