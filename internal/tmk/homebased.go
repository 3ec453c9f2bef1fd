package tmk

import (
	"slices"
	"sync"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// homeProtocol is home-based lazy release consistency (HLRC, in the
// style of Princeton's home-based protocols and JIAJIA): every
// consistency unit has a statically assigned home processor that keeps
// the authoritative copy. At release, a writer flushes its diffs to
// each written unit's home (one one-way message per remote home) and
// discards them; write notices still travel lazily with synchronization.
// An access miss is served by the home alone — one exchange returning
// the unit's entire contents — instead of one diff exchange per
// concurrent writer. The trade the paper's framework exposes: fewer
// messages under write-write false sharing, more bytes per fetch.
//
// The home copies are versioned, as in real HLRC: the home keeps each
// page's flushed diffs stamped with their interval's vector time, and a
// fetch returns the page reconstructed at the *fetcher's* vector time —
// exactly the writes the fetcher is entitled to see under LRC, no more.
// Without this, a processor still traversing pre-step data could
// observe post-step writes that a faster processor already flushed at
// the next barrier (TreadMarks programs rely on concurrent writes
// staying invisible until the reader's next acquire). Flushes reach the
// home before the release's synchronization hands off (they run inside
// the closing interval), so every interval covered by an acquirer's
// vector time is in the log by the time the acquirer can fault on it.
//
// Home application cost is charged to the writer's flush (the one-way
// send); the home's handler time is folded into the fetch exchange's
// service cost, as for homeless diff requests (DESIGN.md §5).
type homeProtocol struct {
	invalidator
	sys *System
	up  int // unit size in pages
	// retain keeps released diffs attached to the published interval in
	// addition to flushing them home. Off for the static configuration
	// (the writer discards after flushing, as in real HLRC); on under
	// adaptive, where writers retain their diffs so a later
	// home→homeless switch finds them in the interval store (this
	// engine omits interval GC anyway — see lrc.Store) at zero wire
	// cost.
	retain bool

	mu  sync.Mutex
	log map[int][]flushEntry // page -> flushed diffs, in arrival order
}

// flushEntry is one flushed page diff with its interval's causal key
// (sum, proc, seq) — see lrc.Interval.CausalKey. A seed entry is the
// unit image installed at an adaptive homeless→home handoff: it is
// visible to every fetcher (only post-switch fetchers can reach the
// home, and all of them cover the switch barrier's vector time) and
// carries proc -1 so it sorts before the same-sum entries its image
// already contains.
type flushEntry struct {
	proc int
	seq  int32
	sum  int64
	seed bool
	d    mem.Diff
}

func newHomeProtocol(s *System) *homeProtocol {
	return &homeProtocol{
		sys: s,
		up:  s.cfg.UnitPages,
		log: make(map[int][]flushEntry),
	}
}

func (*homeProtocol) Name() string { return "home" }

// homeOf returns unit u's current home processor from the System-owned
// home table — the placement policy's assignment ("rr" reproduces the
// paper-era u % nprocs exactly), possibly moved at barriers by the
// rehoming layer (see placement.go).
func (h *homeProtocol) homeOf(u int) int { return h.sys.homeOf(u) }

// Release flushes the diffs to each written unit's home — one one-way
// HomeFlush message per remote home, appended to the home's versioned
// log — and surrenders them (the home now owns the data, so the
// published interval carries the write notices diff-free), unless
// retain is set. Flushing to the processor's own home units is local
// and free of messages.
func (h *homeProtocol) Release(p *Proc, id vc.IntervalID, ts vc.Stamp, units []int, diffs []lrc.PageDiff) []lrc.PageDiff {
	var keep []lrc.PageDiff
	if h.retain {
		keep = diffs
	}
	if len(diffs) == 0 {
		return keep
	}
	sum := ts.Sum()

	// Tally this interval's flush payload by the home of each diff's
	// unit: one entry per diff, grouped by home below. Releases close
	// every writing interval and must not allocate, and nothing here is
	// sized by the processor count.
	fs := &p.fs
	fs.peers = fs.peers[:0]
	for _, pd := range diffs {
		fs.peers = append(fs.peers, peerWork{peer: h.homeOf(pd.Page / h.up), n: pd.D.WireBytes()})
	}

	h.mu.Lock()
	for _, pd := range diffs {
		h.log[pd.Page] = append(h.log[pd.Page], flushEntry{
			proc: id.Proc, seq: id.Seq, sum: sum, d: pd.D,
		})
	}
	h.mu.Unlock()

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
	return keep
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

// seed installs a full-page image into the home's versioned log at an
// adaptive homeless→home handoff. sum must be the vector-entry sum of
// the switch barrier's merged time: every pre-switch interval the image
// contains has a smaller-or-equal sum (ties are idempotent re-applies),
// and every post-switch flush a strictly larger one, so causal sorting
// places the seed correctly. Called while every processor is blocked in
// the switch barrier.
func (h *homeProtocol) seed(page int, sum int64, img mem.Diff) {
	h.mu.Lock()
	h.log[page] = append(h.log[page], flushEntry{proc: -1, sum: sum, seed: true, d: img})
	h.mu.Unlock()
}

// sortFlushEntries stably orders covered log entries by their causal
// key (sum, proc, seq) via binary-insertion sort — no closure, no
// allocation, near-linear on the arrival-ordered runs a home log holds.
func sortFlushEntries(es []flushEntry) {
	less := func(a, b *flushEntry) bool {
		if a.sum != b.sum {
			return a.sum < b.sum
		}
		if a.proc != b.proc {
			return a.proc < b.proc
		}
		return a.seq < b.seq
	}
	for i := 1; i < len(es); i++ {
		e := es[i]
		if !less(&e, &es[i-1]) {
			continue
		}
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(&e, &es[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(es[lo+1:i+1], es[lo:i])
		es[lo] = e
	}
}

// pageImage reconstructs the page's contents at vector time vt: the
// flushed diffs of intervals covered by vt, applied in causal order
// over the zeroed initial page. Used by the occasional barrier-time
// paths (rehoming cost pricing); the fetch path calls pageImageInto
// with per-processor scratch instead.
func (h *homeProtocol) pageImage(page int, vt vc.Time) mem.Diff {
	var fs fetchScratch
	return h.pageImageInto(&fs, page, vt)
}

// pageImageInto is pageImage using fs for every intermediate: the
// covered-entry list, the reconstruction buffer, and — when the image
// arenas have room (Fetch pre-sizes them) — the returned diff's word
// and run storage. Only the log snapshot runs under h.mu; the sort and
// the diff applications do not. The log is append-only for the length
// of a run (like lrc.Store, garbage collection is omitted: runs are
// short and home GC is orthogonal to the study), so a hot page's
// reconstruction cost grows with its flush history.
func (h *homeProtocol) pageImageInto(fs *fetchScratch, page int, vt vc.Time) mem.Diff {
	h.mu.Lock()
	entries := h.log[page]
	h.mu.Unlock()
	fs.covered = fs.covered[:0]
	for _, e := range entries {
		if e.seed || vt.KnowsInterval(e.proc, e.seq) {
			fs.covered = append(fs.covered, e)
		}
	}
	sortFlushEntries(fs.covered)
	if len(fs.imgBuf) < mem.PageSize {
		fs.imgBuf = make([]byte, mem.PageSize)
	}
	buf := fs.imgBuf[:mem.PageSize]
	clear(buf)
	for _, e := range fs.covered {
		e.d.Apply(buf)
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
	return mem.FullPageDiffInto(words, runs, buf)
}

// Fetch implements the home-based miss policy: each stale unit is
// refreshed from its home in one exchange carrying the unit's whole
// contents at the fetcher's vector time — one request/reply per
// distinct home, issued in parallel. Units homed at the faulting
// processor are copied locally, without messages.
func (h *homeProtocol) Fetch(p *Proc, units []int) {
	fs := &p.fs
	fetch := fs.fetchUnits[:0]
	sparse := p.sys.sparseMode()
	for _, u := range units {
		stale := false
		if sparse {
			// The home serves the unit's whole contents at p's vector
			// time, so only the staleness bit matters here; the
			// reconstruction (see notices.go) also consumes the
			// entries, like the dense path's post-fetch clear.
			fs.missScratch = p.missingInto(u, fs.missScratch)
			stale = len(fs.missScratch) > 0
		} else {
			stale = len(p.missing[u]) > 0
		}
		if stale {
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
	// atomicity: every interval covered by p's vector time was flushed
	// before the synchronization that extended the vector time handed
	// off, so it is already in the log, and concurrent flushes are
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
		for s := 0; s < h.up; s++ {
			fs.snapDiffs = append(fs.snapDiffs, h.pageImageInto(fs, u*h.up+s, p.vt))
		}
	}

	// One exchange per distinct home, issued in parallel; units homed
	// locally are a free copy — the processor reads its own
	// authoritative storage. Each page arrives whole from one
	// reconstruction, so plan order suffices for determinism.
	fs.planImages(h.up)
	p.sendExchanges(fs)
	p.applyItems(fs.items)
	p.consumeMissing(fetch)
}
