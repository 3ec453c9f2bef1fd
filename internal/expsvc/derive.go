package expsvc

// Derived serving: the result cache's unit is the full canonical spec,
// but for replay-safe applications under a static protocol the engine's
// message stream is invariant across interconnects — a cache miss that
// differs from an already-executed spec only in its network field does
// not need the engine. The server keeps the compact capture of each
// eligible execution content-addressed beside its result (keyed by the
// canonical spec with the network erased) and answers such misses by
// re-pricing the stored stream (trace.MemSink.Derive), marking the
// response `Dsm-Cache: derived`. Derivation failures of any kind fall
// back silently to a real engine execution — derived serving is an
// optimization, never a correctness dependency.

import (
	"encoding/json"

	"repro/internal/apps"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// DefaultTraceEntries bounds the stored-capture LRU. Captures are the
// expensive kind of cache entry (a struct-of-arrays event buffer per
// run, not a small JSON body), so the default is far smaller than the
// result cache's.
const DefaultTraceEntries = 64

// Derivable reports whether the resolved spec's result may be derived
// from (and its capture stored for) another network's execution:
// replay-safe application (schedule-sensitive lock contenders never
// derive), static protocol (the adaptive policy consults the network,
// so its stream is only conditionally invariant — the harness's
// twin-run analysis does not fit a one-spec-at-a-time service), a
// single trial, and no instrumentation (Stats cannot be re-priced).
func (r *Resolved) Derivable() bool {
	return apps.ReplaySafe(r.c.App) &&
		r.c.Protocol != "adaptive" &&
		r.c.Trials == 1 &&
		!r.c.Collect
}

// TraceKey is the content address of the spec's capture family: the
// canonical hash with the network field erased, so every spec differing
// only in interconnect shares one stored capture.
func (r *Resolved) TraceKey() string {
	c := r.c
	c.Network = "*"
	return hashCanonical(c)
}

// traceStore is the bounded LRU of compact captures, keyed by
// TraceKey. Each entry pairs the capture with the engine result of the
// run that produced it — the template a derived report re-prices.
// The store is bounded by entry count; its held bytes are the event
// storage that bound costs, priced when an entry is added (an ended
// capture does not grow).
type traceStore = lru[traceEntry]

type traceEntry struct {
	sink *trace.MemSink
	base *tmk.Result
}

func newTraceStore(max int) *traceStore {
	if max <= 0 {
		max = DefaultTraceEntries
	}
	return newLRU(max, func(e traceEntry) int64 { return e.sink.Footprint() })
}

// deriveBody answers an eligible cache miss from a stored capture, if
// one exists and re-prices cleanly: re-price the capture through the
// requested network and report the stored run with its time, messages,
// bytes, queue delay and network replaced. Message and byte totals are
// exact; time and queue re-create the recorded pricing order. Returns
// ok=false (engine fallback) when there is no capture or the
// derivation's base-model integrity check refuses.
func (s *Server) deriveBody(res *Resolved) ([]byte, bool) {
	ent, ok := s.traces.Get(res.TraceKey())
	if !ok {
		return nil, false
	}
	d, err := ent.sink.Derive(res.c.Network)
	if err != nil {
		return nil, false
	}
	r := *ent.base
	r.Network = res.c.Network
	r.Time, r.Messages, r.Bytes, r.QueueDelay = d.Time, int(d.Msgs), int(d.Bytes), d.Queue
	rep := res.Report(tmk.Summarize([]*tmk.Result{&r}))
	rep.Derived = true
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, false
	}
	return body, true
}
