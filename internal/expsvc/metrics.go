package expsvc

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/mem"
)

// histogram is a fixed-bucket Prometheus-style histogram: per-bucket
// atomic counters plus an atomically accumulated sum. Stdlib-only —
// the service deliberately takes no metrics dependency — and cheap
// enough to observe on every engine run (one Add + one CAS loop).
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// write renders the histogram in Prometheus text exposition format:
// cumulative le-labeled buckets, sum, and count.
func (h *histogram) write(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Bucket layouts. Engine runs span ~1 ms (tiny cached-size cells) to
// tens of seconds (large multi-trial cells); per-run mean queue delay
// spans sub-microsecond (fast presets) to seconds (bus at scale).
var (
	runDurationBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	queueDelayBounds  = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
)

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (version 0.0.4). Every counter and gauge is read from the
// same atomics as /v1/stats, so the two surfaces cannot disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}

	counter("dsmd_cache_hits_total", "Run requests served straight from the result cache.", st.Hits)
	counter("dsmd_cache_misses_total", "Run requests that executed the engine or joined a flight.", st.Misses)
	counter("dsmd_runs_coalesced_total", "Run requests that joined another caller's in-flight execution.", st.Coalesced)
	counter("dsmd_cache_derived_total", "Run requests answered by re-pricing a stored capture (no engine execution).", st.Derived)
	counter("dsmd_runs_total", "Engine executions completed.", st.Runs)
	counter("dsmd_run_errors_total", "Engine executions that failed (including canceled).", st.RunErrors)
	counter("dsmd_cache_evictions_total", "Result-cache LRU evictions.", st.CacheEvictions)
	counter("dsmd_trace_evictions_total", "Stored-capture LRU evictions.", st.TraceEvictions)

	gauge("dsmd_cache_entries", "Result-cache entries currently held.", float64(st.CacheEntries))
	gauge("dsmd_cache_capacity", "Result-cache capacity.", float64(st.CacheCapacity))
	gauge("dsmd_trace_entries", "Stored captures currently held for derived serving.", float64(st.TraceEntries))
	gauge("dsmd_trace_capacity", "Stored-capture capacity.", float64(st.TraceCapacity))
	gauge("dsmd_trace_bytes", "Event storage held by the stored captures, whole blocks.", float64(st.TraceBytes))
	gauge("dsmd_in_flight_runs", "Engine executions currently holding a run slot.", float64(st.InFlightRuns))
	gauge("dsmd_max_concurrent_runs", "Engine execution concurrency bound.", float64(st.MaxConcurrentRuns))
	gauge("dsmd_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds)

	// The engine's page recycler is one per process, not per Server: its
	// counters cover every engine run the process has made.
	pp := mem.PoolStats()
	counter("dsmd_pagepool_hits_total", "Engine page and slab-chunk requests served from the process-wide recycler.", pp.Hits)
	counter("dsmd_pagepool_misses_total", "Engine page and slab-chunk requests that had to allocate.", pp.Misses)
	counter("dsmd_pagepool_drops_total", "Released engine buffers the recycler's bound turned away.", pp.Drops)
	gauge("dsmd_pagepool_pages", "Pages the recycler currently holds.", float64(pp.Pages))

	if s.flight != nil {
		gauge("dsmd_flight_events", "Events currently retained by the engine flight recorder.", float64(s.flight.Len()))
		counter("dsmd_flight_dropped_total", "Flight-recorder events evicted to make room.", uint64(s.flight.Dropped()))
	}

	s.runDur.write(&b, "dsmd_run_duration_seconds", "Engine execution wall time per run.")
	s.queueDur.write(&b, "dsmd_run_queue_delay_seconds", "Mean simulated network queue delay per run (from the run report).")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
