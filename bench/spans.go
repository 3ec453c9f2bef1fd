package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer: its name, when it ran, the span that caused it and
// the round it belongs to. Spans of one round share the round id.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a round's root span
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Tag    string `json:"tag,omitempty"` // serve-mix: the request's Dsm-Cache disposition
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noSpan is the id handed out while recording is off; end ignores it.
const noSpan = int32(-1)

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing, so the same code path serves the
// traced rounds and the untraced rounds they are compared with.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent int32, round int) int32 {
	if r == nil || !r.on {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) { r.endTagged(id, "") }

func (r *recorder) endTagged(id int32, tag string) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Tag = tag
	r.mu.Unlock()
}

// add records a span whose start and end were measured by the caller
// (serve-mix times each request anyway and records it afterwards).
func (r *recorder) add(name, tag string, parent int32, round int, start, end time.Time) {
	if r == nil || !r.on {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: int32(len(r.spans)), Parent: parent, Name: name, Round: round, Tag: tag,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps the spans as one JSON document.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (cells of one round run on several workers), so the covered
// part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanTotals sums durations and self times by span name (and, for
// tagged spans, by "name:tag" as well).
type spanTotal struct {
	Count int
	Dur   int64
	Self  int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	add := func(key string, i int) {
		t := out[key]
		t.Count++
		t.Dur += spans[i].dur()
		t.Self += self[i]
		out[key] = t
	}
	for i, s := range spans {
		add(s.Name, i)
		if s.Tag != "" {
			add(s.Name+":"+s.Tag, i)
		}
	}
	return out
}
