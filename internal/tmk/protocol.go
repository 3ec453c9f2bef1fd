package tmk

import (
	"cmp"
	"slices"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The coherence protocol is decided one consistency unit at a time, by
// System.unitHome[u]. A homeless unit is served by its concurrent
// writers (TreadMarks' protocol, the one the paper evaluates): diffs
// stay with their writer, and a miss fetches them from each writer. A
// home unit is served by its home processor (home-based LRC): a release
// flushes the unit's diffs to the home (flushHome), and a miss fetches
// the unit's whole pages from it. Everything else — write detection,
// intervals and vector clocks, write notices, locks, barriers, dynamic
// page grouping, the network and cost accounting — does not depend on
// the bit. A write notice only invalidates its unit, whatever the bit
// says; the fault that follows rebuilds the unit's missing writes from
// the interval store (notices.go) and applies them, in causal order,
// whatever the bit says (fetch). The bit only picks the peer each
// missing write is fetched from and how the exchange is priced. See
// DESIGN.md §5.
//
// The bits are written only while every processor is blocked in a
// barrier (adaptivePolicy.decide), so reads on processor goroutines are
// race-free.

// DefaultProtocol is the protocol of the paper's evaluation.
const DefaultProtocol = "homeless"

// protocolMode is what a protocol name selects: whether every unit
// starts home, and whether the adaptive policy flips units at barriers.
type protocolMode struct{ home, adaptive bool }

// protocols is the protocol axis. "adaptive" starts every unit homeless.
var protocols = registry.New("protocol", "protocol", DefaultProtocol, map[string]protocolMode{
	"homeless": {},
	"home":     {home: true},
	"adaptive": {adaptive: true},
})

// ProtocolNames returns the protocol names, sorted.
func ProtocolNames() []string { return protocols.Names() }

// fetchItem is one page diff scheduled for application, keyed for causal
// ordering by its (latest contributing) source interval and attributed to
// the carrying exchange by the collector's tag for it (0: a local copy, or
// collection off). single marks an item whose unit has one writer among
// its missing intervals: a homeless fetch may coalesce its page's diffs.
type fetchItem struct {
	page   int
	d      mem.Diff
	tag    int32
	sum    int64
	prc    int
	sq     int32
	single bool
}

// need is one missing (interval, unit) pair and the peer that serves it:
// the interval's writer for a homeless unit, the unit's home for a home
// unit. single says every missing interval of the unit comes from one
// writer.
type need struct {
	iv     *lrc.Interval
	unit   int
	peer   int
	single bool
}

// exchange is one message exchange a plan schedules: the peer, the
// request and reply payload bytes, the items fs.items[lo:hi] it carries,
// and the collector's tag for it once sent. Plans list exchanges in
// ascending peer order — the order of a full scan over processors — so
// the wire traffic does not depend on how the plan was built. An
// exchange with the processor itself is a local copy and sends nothing.
type exchange struct {
	peer       int
	req, reply int
	lo, hi     int
	tag        int32
}

// fetchScratch is the per-processor working storage of the fetch and
// flush paths. Every slice is sized by the work of one call — the
// missing writes it fetches or the diffs it flushes — and reused across
// calls, so the steady-state miss path allocates nothing and a
// processor that never faults holds nothing.
type fetchScratch struct {
	needs []need     // fetchUnits: missing writes (plan: grouped by peer)
	xs    []exchange // the plan: one exchange per peer
	items []fetchItem
	ds    []mem.Diff
	// coalesced carves a homeless plan's coalesced diffs. They live only
	// until applyItems has applied and tagged them in the same fetch, so
	// plan rewinds it.
	coalesced mem.DiffScratch

	// Notice reconstruction scratch (see notices.go).
	missScratch  []*lrc.Interval // missingInto: one unit's rebuilt list
	spillScratch []int32         // missingInto: next spill under construction
}

func byPeer(a, b need) int              { return cmp.Compare(a.peer, b.peer) }
func exchangesByPeer(a, b exchange) int { return cmp.Compare(a.peer, b.peer) }
func byPage(a, b fetchItem) int         { return cmp.Compare(a.page, b.page) }

// fetch brings the stale units among units up to date in p's replica:
// it sends and prices the exchanges, applies the data and charges p's
// clock, and consumes each unit's missing writes (missingInto). With
// collection on, every exchange it sends is one collector exchange,
// which the caller's fault record counts. A dynamic page group that
// spans both kinds of unit (only under adaptive) is served in two
// fetches, homeless units first, each taking its kind's units in order;
// the two serialize on p's clock.
func (p *Proc) fetch(units []int) {
	s := p.sys
	home := s.unitHome[units[0]]
	if slices.ContainsFunc(units, func(u int) bool { return s.unitHome[u] != home }) {
		p.fetchUnits(units, false)
		home = true
	}
	p.fetchUnits(units, home)
}

// fetchUnits fetches the missing writes of the units among units whose
// bit is home: one exchange per peer, issued in parallel — each writer of
// a homeless unit (many messages, few bytes: TreadMarks' miss policy),
// or each home unit's home (one message per home, whole pages) — and
// applies the writes in causal order (a monotone linearization of
// happens-before). A home's reply is the unit's image at the fetcher's
// vector time; for a data-race-free program, where concurrent intervals
// never write the same word, that image is p's own copy plus the writes
// p misses, so the same writes are applied either way and the home
// reply is priced, charged and tagged as the whole pages it stands for.
func (p *Proc) fetchUnits(units []int, home bool) {
	s, fs := p.sys, &p.fs
	fs.needs = fs.needs[:0]
	for _, u := range units {
		if s.unitHome[u] != home {
			continue
		}
		if fs.missScratch = p.missingInto(u, fs.missScratch); len(fs.missScratch) > 0 {
			peer := -1
			if home {
				peer = s.homeOf(u)
			}
			fs.addNeeds(u, fs.missScratch, peer)
		}
	}
	if len(fs.needs) == 0 {
		return
	}
	fs.plan(s.cfg.UnitPages, home)
	p.sendExchanges()
	// The sort must be stable: a coalesced item keeps only its writer's
	// latest key, and same-key items must retain per-writer list order.
	sortFetchItems(fs.items)
	p.applyItems(fs.items, home)
	if home {
		p.takePages()
	}
}

// addNeeds queues unit u's missing writes, in miss-list order, each owed
// by home — or by its writer, when home is -1 (a homeless unit).
func (fs *fetchScratch) addNeeds(u int, miss []*lrc.Interval, home int) {
	single := true
	for _, iv := range miss {
		single = single && iv.ID.Proc == miss[0].ID.Proc
	}
	for _, iv := range miss {
		peer := home
		if peer < 0 {
			peer = iv.ID.Proc
		}
		fs.needs = append(fs.needs, need{iv: iv, unit: u, peer: peer, single: single})
	}
}

// plan lays out a fetch: one exchange per peer, ascending, carrying the
// diffs of the peer's queued needs. Each unit's missing list holds a
// given interval at most once, so no diff is fetched twice. A homeless
// exchange's request names each need and its reply carries the diffs,
// a page whose unit has a single writer coalesced (TreadMarks'
// single-writer remedy for diff accumulation): one diff, keyed by the
// writer's latest interval. A home exchange's request names each unit
// and its reply carries the units' pages whole, a full-page image of
// mem.FullPageWireBytes each whatever it holds.
func (fs *fetchScratch) plan(up int, home bool) {
	// Stable: each peer's needs stay in unit order, then in miss-list
	// (causal) order, so a home unit's needs stay contiguous.
	slices.SortStableFunc(fs.needs, byPeer)
	fs.items, fs.xs = fs.items[:0], fs.xs[:0]
	fs.coalesced.Rewind()
	for lo := 0; lo < len(fs.needs); {
		x := exchange{peer: fs.needs[lo].peer, lo: len(fs.items)}
		hi, units := lo, 0
		for ; hi < len(fs.needs) && fs.needs[hi].peer == x.peer; hi++ {
			n := &fs.needs[hi]
			if hi == lo || n.unit != fs.needs[hi-1].unit {
				units++
			}
			sum, prc, sq := n.iv.CausalKey()
			for _, pd := range n.iv.DiffsInUnit(n.unit, up) {
				fs.items = append(fs.items, fetchItem{
					page: pd.Page, d: pd.D, sum: sum, prc: prc, sq: sq, single: n.single,
				})
			}
		}
		if home {
			x.req, x.reply = 16+8*units, units*up*mem.FullPageWireBytes
		} else {
			x.req = 16 + 8*(hi-lo)
			fs.coalesce(x.lo)
			for _, it := range fs.items[x.lo:] {
				x.reply += it.d.WireBytes()
			}
		}
		x.hi = len(fs.items)
		fs.xs = append(fs.xs, x)
		lo = hi
	}
}

// coalesce replaces, among one writer's items fs.items[lo:], the diffs
// of each page whose unit has that single writer by one coalesced diff
// keyed by the latest of them, and leaves the other pages' diffs, per
// page in interval order. The order of the pages cannot reach the
// application order: the causal key (sum, proc, seq, page) is unique
// within a fetch.
func (fs *fetchScratch) coalesce(lo int) {
	mine := fs.items[lo:]
	slices.SortStableFunc(mine, byPage)
	out := lo
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

// sendExchanges sends the planned exchanges — in parallel, so the clock is
// charged the slowest — and attributes each one and its items to the
// collector's tag for it. It is reached only from a fault's fetch, on p's
// goroutine, so the exchanges one fault registers are contiguous in the
// collector.
func (p *Proc) sendExchanges() {
	fs := &p.fs
	var maxCost sim.Duration
	for i := range fs.xs {
		x := &fs.xs[i]
		if x.peer == p.id {
			continue
		}
		xt := p.sys.net.SendExchange(
			simnet.DiffRequest, simnet.DiffReply, p.id, x.peer, x.req, x.reply, p.clock.Now())
		if p.sys.col != nil {
			x.tag = p.sys.col.NewDataMsg(p.id)
			for j := x.lo; j < x.hi; j++ {
				fs.items[j].tag = x.tag
			}
		}
		if c := xt.Total(); c > maxCost {
			maxCost = c
		}
	}
	p.clock.Advance(maxCost)
}

// applyItems applies fetched diffs in order. A homeless fetch charges and
// tags each diff by its words; a home fetch's pages are charged and
// tagged whole (takePages).
func (p *Proc) applyItems(items []fetchItem, home bool) {
	for _, it := range items {
		it.d.Apply(p.rep.Page(it.page))
		if home {
			continue
		}
		p.clock.Advance(sim.Duration(it.d.WordCount()) * p.sys.cost.ApplyPerWord)
		if it.tag != 0 {
			p.sys.col.TagDiff(p.id, it.page, it.d, it.tag)
		}
	}
}

// takePages charges and tags a home fetch by the page: every page of
// every fetched unit arrives whole, in its home's exchange, and is
// charged a whole page's application — a unit homed at p, copied
// locally without a message, included.
func (p *Proc) takePages() {
	s, fs, up := p.sys, &p.fs, p.sys.cfg.UnitPages
	x := 0
	for i, n := range fs.needs {
		if i > 0 && n.unit == fs.needs[i-1].unit {
			continue // a unit's needs are contiguous: its pages are taken
		}
		for fs.xs[x].peer != n.peer {
			x++
		}
		for page := n.unit * up; page < (n.unit+1)*up; page++ {
			p.clock.Advance(sim.Duration(mem.WordsPerPage) * s.cost.ApplyPerWord)
			if tag := fs.xs[x].tag; tag != 0 {
				s.col.TagPage(p.id, page, tag)
			}
			if c := s.homeCheck; c != nil {
				c.image(page, p.vt, p.rep.Page(page))
			}
		}
	}
}
