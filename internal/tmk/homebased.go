package tmk

import (
	"slices"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/sim"
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
	// unit: one entry per diff, grouped by home below. Releases close
	// every writing interval and must not allocate, and nothing here is
	// sized by the processor count.
	s, fs := p.sys, &p.fs
	fs.peers = fs.peers[:0]
	for _, pd := range diffs {
		u := pd.Page / s.cfg.UnitPages
		if !s.unitHome[u] {
			continue
		}
		if c := s.homeCheck; c != nil {
			c.flushed(p, pd)
		}
		fs.peers = append(fs.peers, peerWork{peer: s.homeOf(u), n: pd.D.WireBytes()})
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

// planFlush lays out a home flush: one message per home, ascending,
// whose payload is the interval id plus the diffs fs.peers tallies for
// that home.
func (fs *fetchScratch) planFlush() {
	slices.SortStableFunc(fs.peers, byPeer)
	fs.xs = fs.xs[:0]
	for lo := 0; lo < len(fs.peers); {
		x := exchange{peer: fs.peers[lo].peer, req: 8} // flush header: interval id
		hi := lo
		for ; hi < len(fs.peers) && fs.peers[hi].peer == x.peer; hi++ {
			x.req += fs.peers[hi].n
		}
		fs.xs = append(fs.xs, x)
		lo = hi
	}
}

// planImages lays out a home fetch: one exchange per home, ascending,
// carrying its units' pages whole, in fetch order. fs.peers pairs each
// home with a fetched unit; every page of the unit is one item, and its
// reply a full-page image of mem.FullPageWireBytes whatever it holds.
func (fs *fetchScratch) planImages(up int) {
	slices.SortStableFunc(fs.peers, byPeer)
	fs.items, fs.xs = fs.items[:0], fs.xs[:0]
	for lo := 0; lo < len(fs.peers); {
		x := exchange{peer: fs.peers[lo].peer, lo: len(fs.items)}
		hi := lo
		for ; hi < len(fs.peers) && fs.peers[hi].peer == x.peer; hi++ {
			u := fs.peers[hi].n
			for page := u * up; page < (u+1)*up; page++ {
				fs.items = append(fs.items, fetchItem{page: page})
			}
		}
		x.req, x.reply = 16+8*(hi-lo), (hi-lo)*up*mem.FullPageWireBytes
		x.hi = len(fs.items)
		fs.xs = append(fs.xs, x)
		lo = hi
	}
}

// fetchPages serves the missing writes fetchUnits queued for home
// units: each stale unit is refreshed from its home in one exchange
// carrying the unit's whole contents at the fetcher's vector time — one
// request/reply per distinct home (fs.peers), issued in parallel. Units
// homed at the faulting processor are copied locally, without messages.
//
// The home's image at p's vector time is p's own copy plus the writes
// p misses, applied in causal order — for a data-race-free program,
// where concurrent intervals never write the same word. So the reply's
// contents are those writes, and the reply is priced and charged as the
// whole pages the home sends.
func (p *Proc) fetchPages() {
	fs, up := &p.fs, p.sys.cfg.UnitPages
	if len(fs.peers) == 0 {
		return
	}

	// One exchange per distinct home, issued in parallel; units homed
	// locally are a free copy — the processor reads its own
	// authoritative storage. Every fetched page arrives whole.
	fs.planImages(up)
	p.sendExchanges(fs)
	p.clock.Advance(sim.Duration(len(fs.items)*mem.WordsPerPage) * p.sys.cost.ApplyPerWord)
	for _, it := range fs.items {
		if it.tag != 0 {
			p.sys.col.TagPage(p.id, it.page, it.tag)
		}
	}

	// The pages' new contents: the missing writes, in causal order.
	fs.items = fs.items[:0]
	for _, n := range fs.needs {
		sum, prc, sq := n.iv.CausalKey()
		for _, pd := range n.iv.DiffsInUnit(n.unit, up) {
			fs.items = append(fs.items, fetchItem{page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq})
		}
	}
	sortFetchItems(fs.items)
	for _, it := range fs.items {
		it.d.Apply(p.rep.Page(it.page))
	}
	if c := p.sys.homeCheck; c != nil {
		for _, pw := range fs.peers {
			for page := pw.n * up; page < (pw.n+1)*up; page++ {
				c.image(page, p.vt, p.rep.Page(page))
			}
		}
	}
}
