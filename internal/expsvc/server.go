package expsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// Config configures a Server.
type Config struct {
	// CacheEntries bounds the result cache (<= 0 selects
	// DefaultCacheEntries).
	CacheEntries int
	// TraceEntries bounds the stored-capture LRU behind derived serving
	// (<= 0 selects DefaultTraceEntries).
	TraceEntries int
	// MaxConcurrentRuns bounds simultaneous engine executions (<= 0
	// selects GOMAXPROCS). Each execution already runs one goroutine
	// per simulated processor, so admitting every request at once would
	// oversubscribe the machine under sweep traffic; excess runs queue
	// on the pool (a sweep.Pool — the same scheduler the harness's
	// comparison grids run on).
	MaxConcurrentRuns int
	// Runner substitutes the engine execution (nil selects
	// (*Resolved).Run; tests inject counting/blocking runners).
	Runner Runner
	// Logger receives request and run logs (nil selects slog.Default).
	Logger *slog.Logger
	// Flight, when non-nil, turns on the engine flight recorder: every
	// engine execution is traced into this ring as it completes,
	// keeping a bounded window of the most recent simnet and lifecycle
	// events for post-hoc inspection (dsmd serves it at /debug/trace).
	// Each run is labeled with its app and dataset.
	Flight *trace.Ring
}

// Server is the experiment service's HTTP surface. It is an
// http.Handler; cmd/dsmd mounts it in an http.Server with env
// configuration and graceful shutdown.
//
//	POST /v1/run          run (or serve from cache) an experiment spec
//	GET  /v1/cells/{hash} look up a completed cell by canonical hash
//	GET  /v1/registry     discover apps/datasets/protocols/networks/placements
//	GET  /v1/stats        cache, coalescing, and run counters
//	GET  /metrics         the same counters in Prometheus text format
//	GET  /healthz         liveness
type Server struct {
	mux      *http.ServeMux
	cache    *Cache
	coalesce group
	run      Runner
	pool     *sweep.Pool
	log      *slog.Logger
	started  time.Time
	flight   *trace.Ring
	flightTW *trace.Writer // shared flight-recorder writer (nil when off)
	runDur   *histogram    // engine wall time per execution, seconds
	queueDur *histogram    // mean simulated queue delay per run, seconds
	traces   *traceStore   // stored captures behind derived serving

	hits      atomic.Uint64 // /v1/run requests served straight from cache
	misses    atomic.Uint64 // /v1/run requests that had to execute or join a flight
	coalesced atomic.Uint64 // subset of misses that joined another caller's flight
	derived   atomic.Uint64 // subset of misses answered by replaying a stored capture
	runs      atomic.Uint64 // engine executions completed
	runErrors atomic.Uint64 // engine executions that failed (incl. canceled)
	inFlight  atomic.Int64  // engine executions currently holding a run slot
	runNanos  atomic.Int64  // cumulative engine wall time
}

// New builds the service.
func New(cfg Config) *Server {
	var flightTW *trace.Writer
	if cfg.Flight != nil {
		flightTW = trace.NewWriter(cfg.Flight)
	}
	if cfg.Runner == nil {
		cfg.Runner = (*Resolved).Run
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		mux:      http.NewServeMux(),
		cache:    NewCache(cfg.CacheEntries),
		run:      cfg.Runner,
		pool:     sweep.New(cfg.MaxConcurrentRuns),
		log:      cfg.Logger,
		started:  time.Now(),
		flight:   cfg.Flight,
		flightTW: flightTW,
		traces:   newTraceStore(cfg.TraceEntries),
		runDur:   newHistogram(runDurationBounds),
		queueDur: newHistogram(queueDelayBounds),
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/cells/{hash}", s.handleCell)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Flight returns the engine flight-recorder ring, or nil when the
// recorder is off. cmd/dsmd dumps it at GET /debug/trace.
func (s *Server) Flight() *trace.Ring { return s.flight }

// ServeHTTP implements http.Handler. Every request is wrapped in the
// structured access log: method, path, status, duration, and — for
// answered cells — the cell hash and cache disposition from the
// response headers. Health probes log at Debug so a poller does not
// drown the Info stream. The attributes are built only when the line
// is written.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)

	level := slog.LevelInfo
	if r.URL.Path == "/healthz" {
		level = slog.LevelDebug
	}
	if !s.log.Enabled(r.Context(), level) {
		return
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status(),
		"dur_ms", float64(time.Since(start).Microseconds()) / 1e3,
	}
	if cell := sw.Header().Get(HeaderCell); cell != "" {
		attrs = append(attrs, "cell", short(cell), "disposition", sw.Header().Get(HeaderCache))
	}
	s.log.Log(r.Context(), level, "request", attrs...)
}

// statusWriter captures the status code written by a handler so the
// access log can report it after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// short abbreviates a cell hash for log lines the way handleRun does.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// Response headers carrying the cache identity and disposition of a
// /v1/run answer (the body stays exactly the CLI report type).
const (
	// HeaderCell carries the canonical spec hash — the /v1/cells address
	// of the answered cell.
	HeaderCell = "Dsm-Cell"
	// HeaderCache reports how the request was satisfied: "hit" (served
	// from cache), "miss" (this request executed the engine),
	// "coalesced" (shared a concurrent identical request's execution),
	// or "derived" (re-priced from a stored capture of the same spec on
	// another network, without executing the engine).
	HeaderCache = "Dsm-Cache"
)

// maxSpecBytes bounds a /v1/run request body; a spec is a handful of
// short fields.
const maxSpecBytes = 1 << 16

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "", fmt.Sprintf("malformed spec: %v", err))
		return
	}
	res, err := Resolve(spec)
	if err != nil {
		var fe *FieldError
		if errors.As(err, &fe) {
			s.writeError(w, http.StatusBadRequest, fe.Field, fe.Msg)
		} else {
			s.writeError(w, http.StatusBadRequest, "", err.Error())
		}
		return
	}
	hash := res.Hash()
	if body, ok := s.cache.Get(hash); ok {
		s.hits.Add(1)
		// A hit pays for its log line only when the line is written.
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.cellLog(res, hash).Debug("cell served from cache")
		}
		s.writeCell(w, hash, "hit", body)
		return
	}
	s.misses.Add(1)
	log := s.cellLog(res, hash)

	// wasDerived is written by the flight leader's closure before the
	// flight's done channel closes, so reading it after Do returns is
	// ordered; joiners never run the closure and report "coalesced".
	wasDerived := false
	body, err, joined := s.coalesce.Do(r.Context(), hash, func(ctx context.Context) ([]byte, error) {
		// A flight for this hash may have completed between the cache
		// check and Do; re-check so the engine never re-runs a cell that
		// was cached in the gap.
		if body, ok := s.cache.Get(hash); ok {
			return body, nil
		}
		// An eligible miss may be answerable from a stored capture of
		// the same spec on another network — no engine, no run slot.
		if res.Derivable() {
			if body, ok := s.deriveBody(res); ok {
				s.derived.Add(1)
				s.cache.Add(hash, body)
				log.Info("cell derived from stored capture", "network", res.Canonical().Network)
				wasDerived = true
				return body, nil
			}
		}
		return s.execute(ctx, res, hash, log)
	}, func() { s.coalesced.Add(1) })
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone; nothing useful can be written.
			log.Info("run abandoned", "err", err)
			s.writeError(w, statusClientClosedRequest, "", err.Error())
			return
		}
		log.Error("run failed", "err", err)
		s.writeError(w, http.StatusInternalServerError, "", err.Error())
		return
	}
	disposition := "miss"
	if wasDerived {
		disposition = "derived"
	}
	if joined {
		disposition = "coalesced"
	}
	s.writeCell(w, hash, disposition, body)
}

// cellLog returns the logger for one cell's lines: the server's, with
// the app, dataset and abbreviated cell hash attached.
func (s *Server) cellLog(res *Resolved, hash string) *slog.Logger {
	return s.log.With("app", res.Entry.App, "dataset", res.Entry.Dataset, "cell", short(hash))
}

// statusClientClosedRequest mirrors nginx's non-standard 499 for
// requests abandoned by the client mid-run.
const statusClientClosedRequest = 499

// execute runs one engine execution under the bounded run pool (the
// miss path rides the sweep scheduler's budget, so service traffic
// and any in-process comparison grids share one machine's worth of
// concurrency). An eligible execution is captured, so later misses for
// the same spec on other networks can be derived, and the capture is
// then written to the flight recorder; any other execution is traced
// straight into the recorder. A capture is stored only if a run filled
// it.
func (s *Server) execute(ctx context.Context, res *Resolved, hash string, log *slog.Logger) ([]byte, error) {
	v, err := s.pool.Do(ctx, func(ctx context.Context) (any, error) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)

		var ms *trace.MemSink
		var sink trace.Sink // a nil interface, never a nil *MemSink
		switch {
		case res.Derivable():
			ms = trace.NewMemSink()
			sink = ms
		case s.flightTW != nil:
			sink = s.flightTW.Sink(res.Entry.App, res.Entry.Dataset)
		}
		start := time.Now()
		ts, err := s.run(res, ctx, sink)
		elapsed := time.Since(start)
		if err != nil {
			s.runErrors.Add(1)
			return nil, err
		}
		body, err := json.Marshal(res.Report(ts))
		if err != nil {
			s.runErrors.Add(1)
			return nil, err
		}
		if ms != nil && ms.Ended() {
			s.traces.Add(res.TraceKey(), traceEntry{ms, ts.Trials[0]})
			if s.flightTW != nil {
				// The recorder's ring cannot fail a write; a Writer error
				// would only mean a lost flight window, never a wrong result.
				_ = ms.EmitJSONL(s.flightTW, res.Entry.App, res.Entry.Dataset)
			}
		}
		s.runs.Add(1)
		s.runNanos.Add(int64(elapsed))
		s.runDur.Observe(elapsed.Seconds())
		s.queueDur.Observe(ts.MeanQueueDelay.Seconds())
		s.cache.Add(hash, body)
		log.Info("cell executed", "wall_ms", elapsed.Milliseconds(), "bytes", len(body))
		return body, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	body, ok := s.cache.Get(hash)
	if !ok {
		s.writeError(w, http.StatusNotFound, "", fmt.Sprintf("no cached cell %s", hash))
		return
	}
	s.writeCell(w, hash, "hit", body)
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, Registry())
}

// StatsJSON is the /v1/stats document.
type StatsJSON struct {
	UptimeSeconds     float64 `json:"uptime_seconds"`
	CacheEntries      int     `json:"cache_entries"`
	CacheCapacity     int     `json:"cache_capacity"`
	CacheEvictions    uint64  `json:"cache_evictions"`
	Hits              uint64  `json:"hits"`
	Misses            uint64  `json:"misses"`
	Coalesced         uint64  `json:"coalesced"`
	Derived           uint64  `json:"derived"`
	TraceEntries      int     `json:"trace_entries"`
	TraceCapacity     int     `json:"trace_capacity"`
	TraceBytes        int64   `json:"trace_bytes"`
	TraceEvictions    uint64  `json:"trace_evictions"`
	Runs              uint64  `json:"runs"`
	RunErrors         uint64  `json:"run_errors"`
	InFlightRuns      int64   `json:"in_flight_runs"`
	MaxConcurrentRuns int     `json:"max_concurrent_runs"`
	TotalRunSeconds   float64 `json:"total_run_seconds"`
	MeanRunSeconds    float64 `json:"mean_run_seconds"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() StatsJSON {
	st := StatsJSON{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		CacheEntries:      s.cache.Len(),
		CacheCapacity:     s.cache.Capacity(),
		CacheEvictions:    s.cache.Evictions(),
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Coalesced:         s.coalesced.Load(),
		Derived:           s.derived.Load(),
		Runs:              s.runs.Load(),
		RunErrors:         s.runErrors.Load(),
		InFlightRuns:      s.inFlight.Load(),
		MaxConcurrentRuns: s.pool.Workers(),
		TotalRunSeconds:   time.Duration(s.runNanos.Load()).Seconds(),
		TraceEntries:      s.traces.Len(),
		TraceCapacity:     s.traces.Capacity(),
		TraceBytes:        s.traces.heldBytes(),
		TraceEvictions:    s.traces.Evictions(),
	}
	if st.Runs > 0 {
		st.MeanRunSeconds = st.TotalRunSeconds / float64(st.Runs)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) writeCell(w http.ResponseWriter, hash, disposition string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(HeaderCell, hash)
	h.Set(HeaderCache, disposition)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

type errorJSON struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, field, msg string) {
	s.writeJSON(w, status, errorJSON{Error: msg, Field: field})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("response encode failed", "err", err)
	}
}
