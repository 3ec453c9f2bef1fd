package tmk

import (
	"repro/internal/instrument"
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// homelessProtocol is TreadMarks' protocol, the one the paper
// evaluates: diffs stay with their writer, published into the interval
// store at release, and an access miss fetches the missing diffs from
// each concurrent writer — one exchange per writer, issued in parallel
// — then applies them in causal order (many messages, few bytes).
type homelessProtocol struct{ invalidator }

func (*homelessProtocol) Name() string { return "homeless" }

// Release keeps the diffs with the writer: every diff stays attached to
// the published interval, to be served on demand at remote faults. No
// messages move — lazy release consistency at its laziest.
func (*homelessProtocol) Release(p *Proc, id vc.IntervalID, ts vc.Stamp, units []int, diffs []lrc.PageDiff) []lrc.PageDiff {
	return diffs
}

// fetchItem is one page diff scheduled for application, keyed for causal
// ordering by its (latest contributing) source interval and attributed to
// the carrying exchange.
type fetchItem struct {
	page int
	d    mem.Diff
	msg  *instrument.DataMsg
	sum  int64
	prc  int
	sq   int32
}

// writerNeed is one missing (interval, unit) pair owed by one writer.
type writerNeed struct {
	iv   *lrc.Interval
	unit int
}

// pageAcc accumulates, per page within one writer's reply, the diffs to
// apply and whether coalescing is legal (single-writer unit).
type pageAcc struct {
	page         int
	coalesceable bool
	items        []fetchItem
}

// fetchScratch is the per-processor working storage of the fetch paths.
// Every slice and index table below is reused across faults: the maps
// the original implementation allocated per fault (per-writer needs,
// per-unit writer counts, per-page accumulators) are replaced by arrays
// indexed by writer/unit/page with generation marks, so the steady-state
// miss path allocates nothing.
type fetchScratch struct {
	needs      [][]writerNeed // indexed by writer processor
	writers    []int32        // writers with non-empty needs (this call only)
	fetchUnits []int
	unitWr     []int32 // distinct writers per unit (this call only)

	writerMark []int64 // per-writer generation mark (distinct count)
	pageMark   []int64 // per-page generation mark
	pageSlot   []int32 // per-page index into accs, valid when marked
	gen        int64

	accs  []pageAcc
	nAccs int
	items []fetchItem
	ds    []mem.Diff

	// Sparse-mode notice reconstruction scratch (see notices.go).
	missScratch  []lrc.MissingWrite // missingInto: one unit's rebuilt list
	spillScratch []int32            // missingInto: next spill under construction

	// Home-based fetch scratch (see homebased.go).
	homeUnits [][]int      // indexed by home processor
	homes     []int32      // Fetch: homes with non-empty homeUnits (this call only)
	homeBytes []int        // Release: flush payload bytes per home
	relHomes  []int32      // Release: homes with non-zero homeBytes (this call only)
	snapDiffs []mem.Diff   // page images, indexed via pageSlot
	covered   []flushEntry // pageImage: covered log entries
	imgWords  []uint64     // arena backing the page images' words
	imgRuns   []mem.Run    // arena backing the page images' run lists
	nImgRuns  int
	imgBuf    []byte // pageImage: reconstruction buffer
}

// init sizes the scratch for the system's geometry (idempotent).
func (fs *fetchScratch) init(s *System) {
	if len(fs.writerMark) >= s.cfg.Procs && len(fs.pageMark) >= s.numPages &&
		len(fs.unitWr) >= s.numUnits {
		return
	}
	fs.needs = make([][]writerNeed, s.cfg.Procs)
	fs.writerMark = make([]int64, s.cfg.Procs)
	fs.unitWr = make([]int32, s.numUnits)
	fs.pageMark = make([]int64, s.numPages)
	fs.pageSlot = make([]int32, s.numPages)
	fs.homeUnits = make([][]int, s.cfg.Procs)
	fs.gen = 0
}

// accFor returns the accumulator slot for page, creating (or recycling)
// one on first touch in the current generation.
func (fs *fetchScratch) accFor(page int, coalesceable bool) *pageAcc {
	if fs.pageMark[page] == fs.gen {
		return &fs.accs[fs.pageSlot[page]]
	}
	fs.pageMark[page] = fs.gen
	fs.pageSlot[page] = int32(fs.nAccs)
	if fs.nAccs < len(fs.accs) {
		a := &fs.accs[fs.nAccs]
		a.page, a.coalesceable, a.items = page, coalesceable, a.items[:0]
	} else {
		fs.accs = append(fs.accs, pageAcc{page: page, coalesceable: coalesceable})
	}
	fs.nAccs++
	return &fs.accs[fs.nAccs-1]
}

// sortTouched insertion-sorts a short touched-processor list ascending —
// the exchange loops must visit writers/homes in processor order to keep
// wire traffic bit-identical to the full-scan formulation.
func sortTouched(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for j > 0 && a[j-1] > v {
			a[j] = a[j-1]
			j--
		}
		a[j] = v
	}
}

// sortFetchItems stably orders items by (sum, proc, seq, page) — the
// causal application order — via binary-insertion sort: no closure, no
// allocation, near-linear on the per-writer runs the fetch path builds
// (each writer's items are already seq-ascending).
func sortFetchItems(items []fetchItem) {
	less := func(a, b *fetchItem) bool {
		if a.sum != b.sum {
			return a.sum < b.sum
		}
		if a.prc != b.prc {
			return a.prc < b.prc
		}
		if a.sq != b.sq {
			return a.sq < b.sq
		}
		return a.page < b.page
	}
	for i := 1; i < len(items); i++ {
		it := items[i]
		if !less(&it, &items[i-1]) {
			continue
		}
		// Upper bound: first position whose element orders after it, so
		// equal elements keep their relative order (stability).
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(&it, &items[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(items[lo+1:i+1], items[lo:i])
		items[lo] = it
	}
}

// Fetch implements the homeless miss policy: gather the unseen remote
// intervals that wrote the stale units, fetch their diffs — one
// exchange per concurrent writer, issued in parallel — and apply them
// in causal order.
func (*homelessProtocol) Fetch(p *Proc, units []int) []*instrument.DataMsg {
	cost := p.sys.cost
	cfg := p.sys.cfg
	fs := &p.fs
	fs.init(p.sys)

	// Gather missing (interval, unit) pairs per writer across all
	// fetched units. Each unit's missing list holds a given interval at
	// most once (in causal order), so pairs are distinct and no diff is
	// fetched twice. Also count distinct writers per unit: a unit whose
	// missing intervals all come from one writer is served coalesced
	// (TreadMarks' single-writer remedy for diff accumulation). Writers
	// with work are tracked in a touched list so neither the reset nor
	// the exchange loop scans all nprocs entries (a fault touches a
	// handful of writers even in a 1024-processor build).
	for _, w := range fs.writers {
		fs.needs[w] = fs.needs[w][:0]
	}
	fs.writers = fs.writers[:0]
	fs.fetchUnits = fs.fetchUnits[:0]
	sparse := p.sys.sparseMode()
	for _, u := range units {
		var miss []lrc.MissingWrite
		if sparse {
			// Rebuild (and consume) the unit's list from the store's
			// publish log — identical contents and per-writer order to
			// the dense list (see notices.go).
			fs.missScratch = p.missingInto(u, fs.missScratch)
			miss = fs.missScratch
		} else {
			miss = p.missing[u]
		}
		if len(miss) == 0 {
			continue
		}
		fs.fetchUnits = append(fs.fetchUnits, u)
		fs.gen++
		distinct := int32(0)
		for _, mw := range miss {
			w := mw.Interval.ID.Proc
			if len(fs.needs[w]) == 0 {
				fs.writers = append(fs.writers, int32(w))
			}
			fs.needs[w] = append(fs.needs[w], writerNeed{iv: mw.Interval, unit: u})
			if fs.writerMark[w] != fs.gen {
				fs.writerMark[w] = fs.gen
				distinct++
			}
		}
		fs.unitWr[u] = distinct
	}

	// One request/reply exchange per concurrent writer, in ascending
	// writer order for determinism; charged as the max (parallel fetch).
	sortTouched(fs.writers)
	fs.items = fs.items[:0]
	var msgs []*instrument.DataMsg
	var maxCost sim.Duration
	for _, w32 := range fs.writers {
		w := int(w32)
		wNeeds := fs.needs[w]
		reqBytes := 16 + 8*len(wNeeds)
		replyBytes := 0
		wStart := len(fs.items)
		// Per page, the writer's diffs in interval order (wNeeds
		// preserves causal order, so same-writer diffs are seq-ordered),
		// each carrying its own interval's causal key.
		fs.gen++
		fs.nAccs = 0
		for _, n := range wNeeds {
			for _, pd := range n.iv.DiffsInUnit(n.unit, cfg.UnitPages) {
				acc := fs.accFor(pd.Page, fs.unitWr[n.unit] == 1)
				sum, prc, sq := n.iv.CausalKey()
				acc.items = append(acc.items, fetchItem{
					page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq,
				})
			}
		}
		for ai := 0; ai < fs.nAccs; ai++ {
			acc := &fs.accs[ai]
			if acc.coalesceable && len(acc.items) > 1 {
				fs.ds = fs.ds[:0]
				for _, it := range acc.items {
					fs.ds = append(fs.ds, it.d)
				}
				last := acc.items[len(acc.items)-1]
				last.d = mem.CoalesceDiffs(fs.ds)
				replyBytes += last.d.WireBytes()
				fs.items = append(fs.items, last)
				continue
			}
			for _, it := range acc.items {
				replyBytes += it.d.WireBytes()
				fs.items = append(fs.items, it)
			}
		}
		xt := p.sys.net.SendExchange(
			simnet.DiffRequest, simnet.DiffReply, p.id, w, reqBytes, replyBytes, p.clock.Now())
		if p.sys.col != nil {
			dm := p.sys.col.NewDataMsg(w, p.id)
			msgs = append(msgs, dm)
			for i := wStart; i < len(fs.items); i++ {
				fs.items[i].msg = dm
			}
		}
		if c := xt.Total(); c > maxCost {
			maxCost = c
		}
	}
	p.clock.Advance(maxCost)

	// Apply in causal order (monotone linearization of happens-before).
	// The sort must be stable: a coalesced item keeps only its writer's
	// latest key, and same-key items must retain per-writer list order.
	sortFetchItems(fs.items)
	for _, it := range fs.items {
		it.d.Apply(p.rep.Page(it.page))
		p.clock.Advance(sim.Duration(it.d.WordCount()) * cost.ApplyPerWord)
		if p.sys.col != nil && it.msg != nil {
			p.sys.col.TagDiff(p.id, it.page, it.d, it.msg)
		}
	}

	if !sparse {
		for _, u := range fs.fetchUnits {
			// Keep the map entry (and its slice capacity) for the next
			// acquire's notices; only the consumed contents are dropped.
			p.missing[u] = p.missing[u][:0]
		}
	}
	return msgs
}
