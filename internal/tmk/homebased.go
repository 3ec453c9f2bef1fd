package tmk

import (
	"slices"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// homeProtocol is home-based lazy release consistency (HLRC, in the
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
// page reconstructed at the *fetcher's* vector time — exactly the writes
// the fetcher is entitled to see under LRC, no more. Without this, a
// processor still traversing pre-step data could observe post-step
// writes that a faster processor already flushed at the next barrier
// (TreadMarks programs rely on concurrent writes staying invisible until
// the reader's next acquire). The versioned log is the interval store
// itself: every published interval keeps its diffs, so the home's state
// for a unit is the unit's store log (lrc.Store.UnitLog), stamped with
// each interval's vector time. The flush is what the protocol pays for
// the home holding them. An interval is published before the release's
// synchronization hands off, so every interval covered by an acquirer's
// vector time is in the log by the time the acquirer can fault on it.
//
// Home application cost is charged to the writer's flush (the one-way
// send); the home's handler time is folded into the fetch exchange's
// service cost, as for homeless diff requests (DESIGN.md §5).
type homeProtocol struct {
	sys *System
	up  int // unit size in pages
}

func newHomeProtocol(s *System) *homeProtocol {
	return &homeProtocol{sys: s, up: s.cfg.UnitPages}
}

// homeOf returns unit u's current home processor from the System-owned
// home table — the placement policy's assignment ("rr" reproduces the
// paper-era u % nprocs exactly), possibly moved at barriers by the
// rehoming layer (see placement.go).
func (h *homeProtocol) homeOf(u int) int { return h.sys.homeOf(u) }

// Release flushes the diffs that fall in units this engine owns to each
// unit's home: one one-way HomeFlush message per remote home. Flushing
// to the processor's own home units is local and free of messages.
func (h *homeProtocol) Release(p *Proc, diffs []lrc.PageDiff) {
	// Tally this interval's flush payload by the home of each diff's
	// unit: one entry per diff, grouped by home below. Releases close
	// every writing interval and must not allocate, and nothing here is
	// sized by the processor count.
	fs := &p.fs
	fs.peers = fs.peers[:0]
	for _, pd := range diffs {
		u := pd.Page / h.up
		if h.sys.protoOf(u) != h {
			continue
		}
		if c := h.sys.homeCheck; c != nil {
			c.flushed(p, pd)
		}
		fs.peers = append(fs.peers, peerWork{peer: h.homeOf(u), n: pd.D.WireBytes()})
	}

	// One flush message per remote home, in ascending home order for a
	// deterministic send order; the writer's own home units are local.
	fs.planFlush()
	for _, x := range fs.xs {
		if x.peer == p.id {
			continue
		}
		t := p.sys.net.SendLeg(simnet.HomeFlush, p.id, x.peer, x.req, p.clock.Now())
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
// carrying its units' page images in fetch order. fs.peers pairs each
// home with an index i into fs.fetchUnits, and the image of that unit's
// s-th page is fs.snapDiffs[i*up+s].
func (fs *fetchScratch) planImages(up int) {
	slices.SortStableFunc(fs.peers, byPeer)
	fs.items, fs.xs = fs.items[:0], fs.xs[:0]
	for lo := 0; lo < len(fs.peers); {
		x := exchange{peer: fs.peers[lo].peer, lo: len(fs.items)}
		hi := lo
		for ; hi < len(fs.peers) && fs.peers[hi].peer == x.peer; hi++ {
			i := fs.peers[hi].n
			for s := 0; s < up; s++ {
				d := fs.snapDiffs[i*up+s]
				x.reply += d.WireBytes()
				fs.items = append(fs.items, fetchItem{page: fs.fetchUnits[i]*up + s, d: d})
			}
		}
		x.req = 16 + 8*(hi-lo)
		x.hi = len(fs.items)
		fs.xs = append(fs.xs, x)
		lo = hi
	}
}

// unitImagesInto appends the images of unit u's pages at vector time vt
// to fs.snapDiffs, using fs for every intermediate: the covered
// intervals, the reconstruction page, and — when the image arenas have
// room (Fetch pre-sizes them) — each image's word and run storage. A
// page's image is the diffs on it of the unit's logged intervals that vt
// covers, applied in causal order over the zeroed initial page. The log
// grows for the length of a run (like the rest of lrc.Store, garbage
// collection is omitted: runs are short and home GC is orthogonal to
// the study), so a hot unit's reconstruction cost grows with its write
// history.
func (h *homeProtocol) unitImagesInto(fs *fetchScratch, u int, vt vc.Time) {
	fs.covered = fs.covered[:0]
	for _, iv := range h.sys.store.UnitLog(u) {
		if vt.KnowsInterval(iv.ID.Proc, iv.ID.Seq) {
			fs.covered = append(fs.covered, iv)
		}
	}
	lrc.SortCausally(fs.covered)
	if fs.imgBuf == nil {
		fs.imgBuf = mem.GetPage()
	}
	buf := fs.imgBuf[:]
	for page := u * h.up; page < (u+1)*h.up; page++ {
		clear(buf)
		for _, iv := range fs.covered {
			if d, ok := iv.Diff(page); ok {
				d.Apply(buf)
			}
		}
		var words []uint64
		if n := len(fs.imgWords); cap(fs.imgWords)-n >= mem.WordsPerPage {
			fs.imgWords = fs.imgWords[:n+mem.WordsPerPage]
			words = fs.imgWords[n : n+mem.WordsPerPage : n+mem.WordsPerPage]
		} else {
			words = make([]uint64, mem.WordsPerPage)
		}
		var runs []mem.Run
		if fs.nImgRuns < len(fs.imgRuns) {
			runs = fs.imgRuns[fs.nImgRuns : fs.nImgRuns : fs.nImgRuns+1]
			fs.nImgRuns++
		}
		img := mem.FullPageDiffInto(words, runs, buf)
		if c := h.sys.homeCheck; c != nil {
			c.image(page, vt, img)
		}
		fs.snapDiffs = append(fs.snapDiffs, img)
	}
}

// Fetch implements the home-based miss policy: each stale unit is
// refreshed from its home in one exchange carrying the unit's whole
// contents at the fetcher's vector time — one request/reply per
// distinct home, issued in parallel. Units homed at the faulting
// processor are copied locally, without messages.
func (h *homeProtocol) Fetch(p *Proc, units []int) {
	fs := &p.fs
	fetch := fs.fetchUnits[:0]
	for _, u := range units {
		// The home serves the unit's whole contents at p's vector time,
		// so only whether the unit misses writes matters here.
		if fs.missScratch = p.missingInto(u, fs.missScratch); len(fs.missScratch) > 0 {
			fetch = append(fetch, u)
		}
	}
	fs.fetchUnits = fetch
	if len(fetch) == 0 {
		return
	}
	fs.peers = fs.peers[:0]
	for i, u := range fetch {
		fs.peers = append(fs.peers, peerWork{peer: h.homeOf(u), n: i})
	}

	// Reconstruct the fetched units' pages at p's vector time — the
	// reply payloads. Per-page reconstruction needs no cross-page
	// atomicity: every interval covered by p's vector time was published
	// before the synchronization that extended the vector time handed
	// off, so it is already in the log, and concurrent intervals are
	// never covered. The images' word and run storage is carved from
	// arenas sized for the whole fetch up front, so no reallocation
	// invalidates an earlier image.
	needPages := len(fetch) * h.up
	if cap(fs.imgWords) < needPages*mem.WordsPerPage {
		fs.imgWords = make([]uint64, 0, needPages*mem.WordsPerPage)
	}
	fs.imgWords = fs.imgWords[:0]
	if len(fs.imgRuns) < needPages {
		fs.imgRuns = make([]mem.Run, needPages)
	}
	fs.nImgRuns = 0
	fs.snapDiffs = fs.snapDiffs[:0]
	for _, u := range fetch {
		h.unitImagesInto(fs, u, p.vt)
	}

	// One exchange per distinct home, issued in parallel; units homed
	// locally are a free copy — the processor reads its own
	// authoritative storage. Each page arrives whole from one
	// reconstruction, so plan order suffices for determinism.
	fs.planImages(h.up)
	p.sendExchanges(fs)
	p.applyItems(fs.items)
}
