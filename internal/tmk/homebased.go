package tmk

import (
	"slices"

	"repro/internal/lrc"
	"repro/internal/simnet"
)

// Home units follow home-based lazy release consistency (HLRC, in the
// style of Princeton's home-based protocols and JIAJIA): every
// consistency unit has a home processor that keeps the authoritative
// copy. At release, a writer flushes its diffs to each written unit's
// home (one one-way message per remote home); write notices still
// travel lazily with synchronization. An access miss is served by the
// home alone — one exchange returning the unit's entire contents —
// instead of one diff exchange per concurrent writer. The trade the
// paper's framework exposes: fewer messages under write-write false
// sharing, more bytes per fetch.
//
// The home copies are versioned, as in real HLRC: a fetch returns the
// page at the *fetcher's* vector time — exactly the writes the fetcher
// is entitled to see under LRC, no more. Without this, a processor
// still traversing pre-step data could observe post-step writes that a
// faster processor already flushed at the next barrier (TreadMarks
// programs rely on concurrent writes staying invisible until the
// reader's next acquire). The versioned log is the interval store
// itself: every published interval keeps its diffs, and the fault
// rebuilds the writes the fetcher misses from the unit's store log
// (missingInto), so the engine keeps no home copy and builds no image.
// The flush is what the protocol pays for the home holding them. An
// interval is published before the release's synchronization hands
// off, so every interval covered by an acquirer's vector time is in the
// log by the time the acquirer can fault on it.
//
// Home application cost is charged to the writer's flush (the one-way
// send); the home's handler time is folded into the fetch exchange's
// service cost, as for homeless diff requests (DESIGN.md §5).

// flushHome flushes the diffs of p's closing interval that fall in home
// units to each unit's home: one one-way HomeFlush message per remote
// home. Flushing to the processor's own home units is local and free of
// messages. Diffs of homeless units stay with the writer: the published
// interval holds them, to be served on demand at remote faults. Called
// on p's goroutine before the interval is published, which keeps every
// diff either way.
func (p *Proc) flushHome(diffs []lrc.PageDiff) {
	// Tally this interval's flush payload by the home of each diff's
	// unit: one entry per diff, merged per home below. Releases close
	// every writing interval and must not allocate, and nothing here is
	// sized by the processor count.
	s, fs := p.sys, &p.fs
	fs.xs = fs.xs[:0]
	for _, pd := range diffs {
		u := pd.Page / s.cfg.UnitPages
		if !s.unitHome[u] {
			continue
		}
		if c := s.homeCheck; c != nil {
			c.flushed(p, pd)
		}
		fs.xs = append(fs.xs, exchange{peer: s.homeOf(u), req: pd.D.WireBytes()})
	}

	// One flush message per remote home, in ascending home order for a
	// deterministic send order; the writer's own home units are local.
	fs.planFlush()
	for _, x := range fs.xs {
		if x.peer == p.id {
			continue
		}
		t := s.net.SendLeg(simnet.HomeFlush, p.id, x.peer, x.req, p.clock.Now())
		p.clock.Advance(t.Total)
	}
}

// planFlush lays out a home flush from fs.xs, one entry per flushed diff
// (its home and wire bytes): one message per home, ascending, whose
// payload is the interval id plus the home's diffs.
func (fs *fetchScratch) planFlush() {
	slices.SortFunc(fs.xs, exchangesByPeer)
	out := 0
	for _, x := range fs.xs {
		if out > 0 && x.peer == fs.xs[out-1].peer {
			fs.xs[out-1].req += x.req
			continue
		}
		x.req += 8 // flush header: interval id
		fs.xs[out] = x
		out++
	}
	fs.xs = fs.xs[:out]
}
