package tmk

import "repro/internal/lrc"

// Write-notice bookkeeping, one path for both clock representations.
//
// As in TreadMarks, a write notice only invalidates its unit: an
// acquire charges ProtOp for each noticed unit that was valid and keeps
// no per-unit state. lrc.Store records, per unit, the published
// intervals that wrote it (Store.UnitLog), and the access fault that
// follows rebuilds the unit's missing-write list from that log — the
// intervals the processor has learned and not yet fetched.
//
// Since a notice is nothing but its invalidation, an acquire need not
// visit notices at all: applyBarrierGrant walks the units the processor
// holds against the episode's written-unit index whenever that is the
// shorter side. Lock acquires visit their (short) deltas.
//
// Rebuilding is exact because "learned" has a per-entry test: the
// store hands intervals to acquirers in per-processor sequence ranges
// (DeltaInto), so interval (w, seq) has been delivered to p if and only
// if p.vt[w] >= seq. Consumption ("a previous fetch on this unit
// already applied it") is tracked by a per-(processor, unit) cursor
// into the log: because publication happens before the synchronization
// that announces an interval proceeds, the log is real-time ordered,
// and everything a processor has learned is almost always a contiguous
// prefix. The rare exception — an interval learned through a lock chain
// while an earlier-published concurrent interval is still unknown —
// lands in a small spill list until the prefix catches up.

// fetchCursor is one processor's consumption state for one unit's
// publish log: entries below idx are consumed (or the processor's
// own), spill holds the consumed indices at or beyond idx, sorted
// ascending. Proc.fcur holds one by value, only for units the processor
// faults on.
type fetchCursor struct {
	idx   int32
	spill []int32
}

// missingInto rebuilds unit u's unconsumed missing-write list into out,
// in publish order (per writer, sequence order), and marks every
// currently-learned log entry consumed: both fetch policies consume the
// whole list in the same call, so rebuilding and consumption fuse into
// one pass over the log's unconsumed suffix.
func (p *Proc) missingInto(u int, out []*lrc.Interval) []*lrc.Interval {
	out = out[:0]
	log := p.sys.store.UnitLog(u)
	c := p.fcur[u]
	start := int(c.idx)
	if start >= len(log) {
		return out
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
			out = append(out, iv)
		}
		if prefix {
			idx = int32(j + 1)
		} else {
			newSpill = append(newSpill, int32(j))
		}
	}
	c.idx = idx
	c.spill = append(c.spill[:0], newSpill...)
	p.fcur[u] = c
	fs.spillScratch = newSpill[:0]
	if chk := p.sys.noticeCheck; chk != nil {
		chk.fetched(p, u, out)
	}
	return out
}
