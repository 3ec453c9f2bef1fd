package tmk

import "repro/internal/lrc"

// Sparse-mode write-notice bookkeeping.
//
// The dense reference engine applies every acquire's write notices
// eagerly: each learned interval is appended into the acquirer's
// per-unit missing-write lists (invalidator.AcquireUnit), so a barrier
// on n processors performs O(written units × n) map appends even for
// units most processors will never read. At 256+ processors that
// fan-out is the engine's hottest path by a wide margin.
//
// The sparse engine drops the per-processor lists entirely and keeps
// one global index instead: lrc.Store records, per unit, the published
// intervals that wrote it (Store.UnitLog). A processor reconstructs a
// unit's missing-write list lazily, at fault time, from the log — an
// acquire touches no per-unit state beyond the page-table invalidation
// and ProtOp charge the dense path also performs, so virtual time and
// wire traffic are unchanged.
//
// That removes the appends, not the n² term: an acquire that still
// visits every notice to invalidate its unit does O(notices) work per
// processor whether or not it records anything. Lock acquires do (their
// deltas are short); a barrier does not have to, and since a notice is
// now nothing but its invalidation it need not visit notices at all —
// applyBarrierGrant walks the units the processor holds against the
// episode's written-unit index whenever that is the shorter side.
//
// Reconstruction is exact because "learned" has a per-entry test: the
// store hands intervals to acquirers in per-processor sequence ranges
// (DeltaInto), so interval (w, seq) has been delivered to p — and was
// appended to p's dense missing lists — if and only if p.vt[w] >= seq.
// Consumption ("a previous fetch on this unit already applied it") is
// tracked by a per-(processor, unit) cursor into the log: because
// publication happens before the synchronization that announces an
// interval proceeds, the log is real-time ordered, and everything a
// processor has learned is almost always a contiguous prefix. The rare
// exception — an interval learned through a lock chain while an
// earlier-published concurrent interval is still unknown — lands in a
// small spill list until the prefix catches up.

// fetchCursor is one processor's consumption state for one unit's
// publish log: entries below idx are consumed (or the processor's
// own), spill holds the consumed indices at or beyond idx, sorted
// ascending. Allocated lazily, only for units the processor faults on.
type fetchCursor struct {
	idx   int32
	spill []int32
}

// missingInto reconstructs unit u's unconsumed missing-write list — in
// publish order, which agrees with the dense lists' per-writer
// sequence order — into out, and marks every currently-learned log
// entry consumed. Callers treat a non-empty result exactly like a
// dense p.missing[u] snapshot; both fetch policies consume the whole
// list in the same call, so reconstruction and consumption fuse into
// one pass over the log's unconsumed suffix.
func (p *Proc) missingInto(u int, out []lrc.MissingWrite) []lrc.MissingWrite {
	out = out[:0]
	log := p.sys.store.UnitLog(u)
	c := p.fcur[u]
	start := 0
	if c != nil {
		start = int(c.idx)
	}
	if start >= len(log) {
		return out
	}
	if c == nil {
		c = &fetchCursor{}
		p.fcur[u] = c
	}
	fs := &p.fs
	newSpill := fs.spillScratch[:0]
	si := 0
	prefix := true
	idx := c.idx
	for j := start; j < len(log); j++ {
		iv := log[j]
		wasConsumed := false
		if si < len(c.spill) && c.spill[si] == int32(j) {
			si++
			wasConsumed = true
		}
		own := iv.ID.Proc == p.id
		if !own && !p.vt.KnowsInterval(iv.ID.Proc, iv.ID.Seq) {
			// Published but not yet learned (a concurrent
			// episode-mate): stays unconsumed for a later fetch.
			prefix = false
			continue
		}
		if !own && !wasConsumed {
			out = append(out, lrc.MissingWrite{Interval: iv})
		}
		if prefix {
			idx = int32(j + 1)
		} else {
			newSpill = append(newSpill, int32(j))
		}
	}
	c.idx = idx
	c.spill = append(c.spill[:0], newSpill...)
	fs.spillScratch = newSpill[:0]
	return out
}
