package expsvc

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestHistogramBucketsAndSum pins the histogram's Prometheus rendering:
// cumulative le-labeled buckets, an exact +Inf total, and a float sum.
func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	h.write(&b, "x_seconds", "test histogram")
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{le="0.1"} 1`,
		`x_seconds_bucket{le="1"} 3`,
		`x_seconds_bucket{le="10"} 4`,
		`x_seconds_bucket{le="+Inf"} 5`,
		`x_seconds_sum 56.05`,
		`x_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// metricValue extracts a sample value from a Prometheus text body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestMetricsMatchesStats pins the acceptance check: after a miss, a
// hit, and a coalesced pair, /metrics must report exactly the counters
// /v1/stats reports, plus populated run-duration and queue-delay
// histograms.
func TestMetricsMatchesStats(t *testing.T) {
	runner := &countingRunner{}
	s, ts := newTestServer(t, Config{Runner: runner.run})

	spec := `{"app":"jacobi","dataset":"small"}`
	readBody(t, postSpec(t, ts, spec)) // miss
	readBody(t, postSpec(t, ts, spec)) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition format", ct)
	}
	body := readBody(t, resp)

	st := s.Stats()
	for name, want := range map[string]float64{
		"dsmd_cache_hits_total":      float64(st.Hits),
		"dsmd_cache_misses_total":    float64(st.Misses),
		"dsmd_runs_coalesced_total":  float64(st.Coalesced),
		"dsmd_cache_derived_total":   float64(st.Derived),
		"dsmd_trace_entries":         float64(st.TraceEntries),
		"dsmd_trace_capacity":        float64(st.TraceCapacity),
		"dsmd_trace_bytes":           float64(st.TraceBytes),
		"dsmd_runs_total":            float64(st.Runs),
		"dsmd_run_errors_total":      float64(st.RunErrors),
		"dsmd_cache_evictions_total": float64(st.CacheEvictions),
		"dsmd_trace_evictions_total": float64(st.TraceEvictions),
		"dsmd_cache_entries":         float64(st.CacheEntries),
		"dsmd_in_flight_runs":        float64(st.InFlightRuns),
		"dsmd_max_concurrent_runs":   float64(st.MaxConcurrentRuns),
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
		}
	}
	if st.Hits != 1 || st.Misses != 1 || st.Runs != 1 {
		t.Fatalf("traffic did not land as miss+hit: %+v", st)
	}
	if got := metricValue(t, body, `dsmd_run_duration_seconds_count`); got != 1 {
		t.Errorf("run duration histogram count = %v, want 1", got)
	}
	if got := metricValue(t, body, `dsmd_run_queue_delay_seconds_count`); got != 1 {
		t.Errorf("queue delay histogram count = %v, want 1", got)
	}
}

// TestAccessLog pins the structured per-request log: every request
// logs method, path, status, and duration; answered cells add the cell
// hash and cache disposition; health probes stay at Debug.
func TestAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Runner: runner.run, Logger: logger})

	readBody(t, postSpec(t, ts, `{"app":"jacobi","dataset":"small"}`))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	logs := logBuf.String()
	var accessLine string
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "msg=request") && strings.Contains(line, "path=/v1/run") {
			accessLine = line
		}
	}
	if accessLine == "" {
		t.Fatalf("no access log line for POST /v1/run:\n%s", logs)
	}
	for _, want := range []string{"method=POST", "status=200", "dur_ms=", "cell=", "disposition=miss"} {
		if !strings.Contains(accessLine, want) {
			t.Errorf("access line missing %s: %s", want, accessLine)
		}
	}
	if strings.Contains(logs, "path=/healthz") {
		t.Errorf("healthz probe logged at Info; it must stay at Debug:\n%s", logs)
	}
}

// TestHitLog pins the cache hit's own line: at Debug it carries the
// app, dataset and cell like every line about a cell; at Info it is not
// written.
func TestHitLog(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo} {
		var logBuf bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: level}))
		runner := &countingRunner{}
		_, ts := newTestServer(t, Config{Runner: runner.run, Logger: logger})
		for range 2 {
			readBody(t, postSpec(t, ts, `{"app":"jacobi","dataset":"small"}`))
		}
		var hitLines []string
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(line, `msg="cell served from cache"`) {
				hitLines = append(hitLines, line)
			}
		}
		if level == slog.LevelInfo {
			if len(hitLines) != 0 {
				t.Errorf("hit logged at Info: %q", hitLines)
			}
			continue
		}
		if len(hitLines) != 1 {
			t.Fatalf("%d hit lines at Debug, want 1:\n%s", len(hitLines), logBuf.String())
		}
		for _, want := range []string{"level=DEBUG", "app=Jacobi", "dataset=small", "cell="} {
			if !strings.Contains(hitLines[0], want) {
				t.Errorf("hit line missing %s: %s", want, hitLines[0])
			}
		}
	}
}

// TestFlightRecorder drives real engine runs through both of the
// recorder's paths — a derivable spec, captured for derived serving and
// then written out, and a two-trial spec traced through the Writer's
// sink — and checks the ring holds all three runs, complete and
// dsmtrace-readable.
func TestFlightRecorder(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	s, ts := newTestServer(t, Config{Flight: ring})
	if s.Flight() != ring {
		t.Fatal("Flight() should expose the configured ring")
	}

	for _, spec := range []string{
		`{"app":"jacobi","dataset":"small","trials":1}`,
		`{"app":"jacobi","dataset":"small","trials":2}`,
	} {
		resp := postSpec(t, ts, spec)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s failed: %d: %s", spec, resp.StatusCode, body)
		}
	}
	if ring.Len() == 0 {
		t.Fatal("flight recorder retained nothing after an engine run")
	}
	if st := s.Stats(); st.TraceEntries != 1 {
		t.Errorf("stored captures = %d, want the derivable run's 1", st.TraceEntries)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring evicted %d lines; the window no longer holds whole runs", ring.Dropped())
	}

	var dump bytes.Buffer
	if err := ring.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatalf("flight dump must be a readable trace: %v", err)
	}
	var legs, ends int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.E {
		case trace.EvLeg, trace.EvControl, trace.EvExchange:
			legs++
		case trace.EvRunEnd:
			ends++
		}
	}
	if legs == 0 || ends != 3 {
		t.Fatalf("dump has %d message events and %d run_end lines; want >0 and 3", legs, ends)
	}
	runs, err := trace.ReadRuns(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range runs {
		if m := ms.Meta(); m.App != "Jacobi" || m.Dataset != "small" {
			t.Errorf("flight run %d labeled %q/%q, want Jacobi/small", i+1, m.App, m.Dataset)
		}
		d, err := ms.Derive(ms.Meta().Network)
		if err != nil {
			t.Fatalf("flight run %d: %v", i+1, err)
		}
		if time, rec := ms.Recorded(); d.Time != time || d.Totals != rec {
			t.Errorf("flight run %d: recorded %v %+v, derived on its own network %v %+v", i+1, time, rec, d.Time, d.Totals)
		}
	}

	// The recorder also surfaces on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := readBody(t, mresp)
	if got := metricValue(t, mbody, "dsmd_flight_events"); got != float64(ring.Len()) {
		t.Errorf("dsmd_flight_events = %v, ring holds %d", got, ring.Len())
	}
}
