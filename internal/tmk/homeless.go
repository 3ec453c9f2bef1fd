package tmk

import (
	"cmp"
	"slices"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// fetchItem is one page diff scheduled for application, keyed for causal
// ordering by its (latest contributing) source interval and attributed to
// the carrying exchange by the collector's tag for it (0: a local copy, or
// collection off). single marks a homeless item whose unit has one writer
// among its missing intervals: its page's diffs may be coalesced. The
// items of fetchPages' plan carry a page and no diff: the page travels
// whole.
type fetchItem struct {
	page   int
	d      mem.Diff
	tag    int32
	sum    int64
	prc    int
	sq     int32
	single bool
}

// writerNeed is one missing (interval, unit) pair owed by one writer;
// single says every missing interval of the unit comes from that writer.
type writerNeed struct {
	iv     *lrc.Interval
	unit   int
	writer int
	single bool
}

// peerWork is one unit of work owed to or by a peer: a home fetch's
// (home, unit) or a home flush's (home, diff bytes).
type peerWork struct{ peer, n int }

// exchange is one message exchange a plan schedules: the peer, the
// request and reply payload bytes, and the items fs.items[lo:hi] it
// carries. Plans list exchanges in ascending peer order — the order of
// a full scan over processors — so the wire traffic does not depend on
// how the plan was built. An exchange with the processor itself is a
// local copy and sends nothing.
type exchange struct {
	peer       int
	req, reply int
	lo, hi     int
}

// fetchScratch is the per-processor working storage of the fetch and
// flush paths. Every slice is sized by the work of one call — the
// missing writes, fetched units or flushed diffs it handles — and reused
// across calls, so the steady-state miss path allocates nothing and a
// processor that never faults holds nothing.
type fetchScratch struct {
	needs []writerNeed // fetchUnits: missing writes (fetchDiffs: grouped by writer)
	peers []peerWork   // fetchPages/flushHome: work per home, grouped by home
	xs    []exchange   // the plan: one exchange per peer
	items []fetchItem
	ds    []mem.Diff
	// coalesced carves the homeless plan's coalesced diffs. They live
	// only until applyItems has applied and tagged them in the same
	// fetch, so planDiffs rewinds it.
	coalesced mem.DiffScratch

	// Notice reconstruction scratch (see notices.go).
	missScratch  []*lrc.Interval // missingInto: one unit's rebuilt list
	spillScratch []int32         // missingInto: next spill under construction
}

func byPeer(a, b peerWork) int     { return cmp.Compare(a.peer, b.peer) }
func byWriter(a, b writerNeed) int { return cmp.Compare(a.writer, b.writer) }
func byPage(a, b fetchItem) int    { return cmp.Compare(a.page, b.page) }

// addNeeds queues unit u's missing writes, in miss-list order.
func (fs *fetchScratch) addNeeds(u int, miss []*lrc.Interval) {
	single := true
	for _, iv := range miss {
		single = single && iv.ID.Proc == miss[0].ID.Proc
	}
	for _, iv := range miss {
		fs.needs = append(fs.needs, writerNeed{iv: iv, unit: u, writer: iv.ID.Proc, single: single})
	}
}

// planDiffs lays out a homeless fetch: one exchange per writer,
// ascending, carrying the writer's diffs for the queued needs. Each
// unit's missing list holds a given interval at most once, so no diff
// is fetched twice. A page whose unit has a single writer is served
// coalesced (TreadMarks' single-writer remedy for diff accumulation):
// one diff, keyed by the writer's latest interval.
func (fs *fetchScratch) planDiffs(unitPages int) {
	// Stable: each writer's needs stay in unit order, then in miss-list
	// (causal) order.
	slices.SortStableFunc(fs.needs, byWriter)
	fs.items, fs.xs = fs.items[:0], fs.xs[:0]
	fs.coalesced.Rewind()
	for lo := 0; lo < len(fs.needs); {
		w := fs.needs[lo].writer
		hi := lo
		start := len(fs.items)
		for ; hi < len(fs.needs) && fs.needs[hi].writer == w; hi++ {
			n := &fs.needs[hi]
			sum, prc, sq := n.iv.CausalKey()
			for _, pd := range n.iv.DiffsInUnit(n.unit, unitPages) {
				fs.items = append(fs.items, fetchItem{
					page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq, single: n.single,
				})
			}
		}
		// Per page, the writer's diffs in interval order. The order of
		// the pages cannot reach the application order: the causal key
		// (sum, proc, seq, page) is unique within a fetch.
		mine := fs.items[start:]
		slices.SortStableFunc(mine, byPage)
		x := exchange{peer: w, req: 16 + 8*(hi-lo), lo: start}
		out := start
		for i := 0; i < len(mine); {
			j := i + 1
			for j < len(mine) && mine[j].page == mine[i].page {
				j++
			}
			if mine[i].single && j-i > 1 {
				fs.ds = fs.ds[:0]
				for _, it := range mine[i:j] {
					fs.ds = append(fs.ds, it.d)
				}
				last := mine[j-1]
				last.d = fs.coalesced.Coalesce(fs.ds)
				fs.items[out] = last
				out++
			} else {
				out += copy(fs.items[out:], mine[i:j])
			}
			i = j
		}
		fs.items = fs.items[:out]
		for _, it := range fs.items[start:] {
			x.reply += it.d.WireBytes()
		}
		x.hi = out
		fs.xs = append(fs.xs, x)
		lo = hi
	}
}

// sortFetchItems stably orders items by (sum, proc, seq, page) — the
// causal application order — via binary-insertion sort: no closure, no
// allocation, near-linear on the per-writer runs the fetch path builds
// (each writer's items are grouped by page, seq-ascending within one).
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

// fetchDiffs serves the missing writes fetchUnits queued for homeless
// units, TreadMarks' miss policy: it fetches their diffs from each
// concurrent writer — one exchange per writer, issued in parallel — and
// applies them in causal order (many messages, few bytes).
func (p *Proc) fetchDiffs() {
	fs := &p.fs
	fs.planDiffs(p.sys.cfg.UnitPages)
	p.sendExchanges(fs)

	// Apply in causal order (monotone linearization of happens-before).
	// The sort must be stable: a coalesced item keeps only its writer's
	// latest key, and same-key items must retain per-writer list order.
	sortFetchItems(fs.items)
	p.applyItems(fs.items)
}

// sendExchanges sends the planned exchanges — in parallel, so the clock is
// charged the slowest — and attributes each one's items to the collector's
// tag for it. It is reached only from a fault's fetch, on p's goroutine,
// so the exchanges one fault registers are contiguous in the collector.
func (p *Proc) sendExchanges(fs *fetchScratch) {
	var maxCost sim.Duration
	for _, x := range fs.xs {
		if x.peer == p.id {
			continue
		}
		xt := p.sys.net.SendExchange(
			simnet.DiffRequest, simnet.DiffReply, p.id, x.peer, x.req, x.reply, p.clock.Now())
		if p.sys.col != nil {
			tag := p.sys.col.NewDataMsg(p.id)
			for i := x.lo; i < x.hi; i++ {
				fs.items[i].tag = tag
			}
		}
		if c := xt.Total(); c > maxCost {
			maxCost = c
		}
	}
	p.clock.Advance(maxCost)
}

// applyItems applies fetched diffs in order, charging each its words.
func (p *Proc) applyItems(items []fetchItem) {
	for _, it := range items {
		it.d.Apply(p.rep.Page(it.page))
		p.clock.Advance(sim.Duration(it.d.WordCount()) * p.sys.cost.ApplyPerWord)
		if it.tag != 0 {
			p.sys.col.TagDiff(p.id, it.page, it.d, it.tag)
		}
	}
}
