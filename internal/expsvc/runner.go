package expsvc

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/trace"
)

// Runner executes one resolved spec and returns the marshaled report
// body (a harness.TrialsJSON — byte-for-byte what dsmrun -json emits).
// The server runs the engine itself by default; tests substitute
// counting or blocking runners to pin the coalescing and caching
// invariants.
type Runner func(ctx context.Context, r *Resolved) ([]byte, error)

// engineRun runs the spec through the real simulation engine: build the
// workload from its registry factory, run the configured trials
// (verifying each against the sequential reference), and marshal the
// trial report. Cancellation of ctx stops remaining trials.
//
// With capture set, the (single-trial) execution is recorded into its
// own MemSink, returned so the server can store it beside the result
// and answer same-spec-other-network misses by replay. A non-nil flight
// writer is the flight recorder: a capture is written to it after the
// run, and any other execution is traced into it through flight.Sink.
func engineRun(ctx context.Context, r *Resolved, flight *trace.Writer, capture bool) ([]byte, *trace.MemSink, error) {
	cfg := r.EngineConfig()
	var ms *trace.MemSink
	switch {
	case capture:
		ms = trace.NewMemSink()
		cfg.Sink = ms
	case flight != nil:
		cfg.Sink = flight.Sink()
	}
	ts, err := apps.RunTrialsContext(ctx, r.Entry.Make(r.Procs()), cfg, r.Trials())
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", r.Entry.App, r.Entry.Dataset, err)
	}
	if ms != nil && flight != nil {
		// The recorder's ring cannot fail a write; a Writer error would
		// only mean a lost flight window, never a wrong result.
		_ = ms.EmitJSONL(flight)
	}
	rep := harness.TrialsReport(r.Entry.App, r.Entry.Dataset, r.Entry.Paper, cfg, ts)
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, nil, err
	}
	return body, ms, nil
}
