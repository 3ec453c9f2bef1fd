package expsvc

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// Runner executes one resolved spec and returns its trial summary;
// a non-nil sink is where the server wants the run's stream captured.
// The server runs (*Resolved).Run by default; tests substitute counting
// or blocking runners to pin the coalescing and caching invariants. A
// runner that ignores the sink leaves no capture to store and no
// flight-recorder lines.
type Runner func(r *Resolved, ctx context.Context, sink trace.Sink) (*tmk.TrialSummary, error)

// Run is the one path from a resolved spec to an engine run, shared by
// the service and the CLIs: build the workload from its registry
// factory and run the configured trials, verifying each against the
// sequential reference. A non-nil sink receives every trial's stream.
// Cancellation of ctx stops remaining trials.
func (r *Resolved) Run(ctx context.Context, sink trace.Sink) (*tmk.TrialSummary, error) {
	cfg := r.cfg
	cfg.Sink = sink
	ts, err := apps.RunTrialsContext(ctx, r.Entry.Make(r.c.Procs), cfg, r.c.Trials)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", r.Entry.App, r.Entry.Dataset, err)
	}
	return ts, nil
}

// Report is the trial report of a run of the spec: the value
// `dsmrun -json` prints and /v1/run serves.
func (r *Resolved) Report(ts *tmk.TrialSummary) harness.TrialsJSON {
	return harness.TrialsReport(r.Entry.App, r.Entry.Dataset, r.Entry.Paper, r.cfg, ts)
}
