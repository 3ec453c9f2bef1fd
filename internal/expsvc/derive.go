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
	"container/list"
	"encoding/json"
	"sync"

	"repro/internal/apps"
	"repro/internal/harness"
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
// TraceKey. Each entry pairs the capture with the marshaled report of
// the run that produced it — the template a derived response rewrites.
type traceStore struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
	bytes int64 // event storage held by the stored captures
}

type traceEntry struct {
	key   string
	sink  *trace.MemSink
	body  []byte
	bytes int64 // sink.Footprint() when stored: an ended capture does not grow
}

func newTraceStore(max int) *traceStore {
	if max <= 0 {
		max = DefaultTraceEntries
	}
	return &traceStore{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (t *traceStore) Get(key string) (*traceEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[key]
	if !ok {
		return nil, false
	}
	t.ll.MoveToFront(el)
	return el.Value.(*traceEntry), true
}

func (t *traceStore) Add(key string, sink *trace.MemSink, body []byte) {
	held := sink.Footprint()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes += held
	if el, ok := t.items[key]; ok {
		ent := el.Value.(*traceEntry)
		t.bytes -= ent.bytes
		ent.sink, ent.body, ent.bytes = sink, body, held
		t.ll.MoveToFront(el)
		return
	}
	t.items[key] = t.ll.PushFront(&traceEntry{key: key, sink: sink, body: body, bytes: held})
	for t.ll.Len() > t.max {
		oldest := t.ll.Remove(t.ll.Back()).(*traceEntry)
		delete(t.items, oldest.key)
		t.bytes -= oldest.bytes
	}
}

func (t *traceStore) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// Bytes returns the event storage the stored captures hold. The store
// is bounded by entry count; this is what that bound costs.
func (t *traceStore) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

func (t *traceStore) Capacity() int { return t.max }

// deriveBody answers an eligible cache miss from a stored capture, if
// one exists and re-prices cleanly: parse the stored run's report,
// re-price the capture through the requested network, and rewrite the
// report's priced fields. Message and byte totals are exact; time and
// queue re-create the recorded pricing order. Returns ok=false (engine
// fallback) when there is no capture, the derivation's base-model
// integrity check refuses, or the stored body does not look like the
// single-trial report it must be.
func (s *Server) deriveBody(res *Resolved) ([]byte, bool) {
	ent, ok := s.traces.Get(res.TraceKey())
	if !ok {
		return nil, false
	}
	d, err := ent.sink.Derive(res.c.Network)
	if err != nil {
		return nil, false
	}
	var rep harness.TrialsJSON
	if err := json.Unmarshal(ent.body, &rep); err != nil || len(rep.Trials) != 1 {
		return nil, false
	}
	rep.Network = res.c.Network
	rep.Derived = true
	tr := &rep.Trials[0]
	tr.Network = res.c.Network
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
	if err != nil {
		return nil, false
	}
	return body, true
}
