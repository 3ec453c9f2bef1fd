package tmk

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/aggregate"
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vc"
)

// Proc is one simulated processor: a goroutine-private replica of the
// shared segment, a software page table at consistency-unit granularity,
// LRC metadata, and a virtual clock. All methods must be called from the
// processor's own goroutine (inside Run's body).
type Proc struct {
	id  int
	sys *System

	clock sim.Clock
	rep   *mem.Replica
	pt    *mem.PageTable // indexed by unit, not page; written through setState only

	// held lists every unit that is not Invalid exactly once, and each
	// unit that was and is no longer at most once; heldMark[u] says
	// whether unit u is listed. setState lists a unit that becomes valid,
	// the barrier's held-unit walk (applyBarrierGrant), which walks this
	// list instead of the episode's notices when it is the shorter, drops
	// the Invalid ones; heldStale bounds how many of those there are.
	held      []int32
	heldMark  []bool
	heldStale int

	// The translation cache of the access path (see tlbEntry), the
	// generation its live entries carry in the upper half of their keys,
	// and the per-access charge it saves looking up. tlbWS[i] is the
	// write set of the page tlb[i] translates while that page is
	// writable, nil while it is not; it sits beside the table, not in
	// it, so that an entry stays 32 bytes on the read path.
	tlb       [tlbSize]tlbEntry
	tlbWS     [tlbSize]*writeSet
	tlbGen    uint64
	memAccess sim.Duration

	// tk is the processor's vector-time register: the dense working time
	// plus the deviation set relative to the current barrier epoch. vt
	// aliases tk.T — every dense read (store deltas, KnowsInterval
	// filtering) goes through vt, every mutation through tk so the
	// deviation bookkeeping stays exact.
	tk *vc.Tracked
	vt vc.Time

	// Multiple-writer state for the current interval: the units written,
	// in order, and every write set the processor owns. The k-th unit of
	// writeOrder owns wsets[k*UnitPages:(k+1)*UnitPages], one per page;
	// the sets past the live ones keep their buffers for the next write
	// fault, so steady-state write detection allocates nothing.
	// checkTwins, parallel to wsets, holds the full twins the twinHook
	// compares against (tests only).
	writeOrder []int
	wsets      []writeSet
	checkTwins []mem.Twin

	// fcur[unit] is the processor's consumption cursor into the store's
	// per-unit publish log (see notices.go): entries below idx are
	// consumed (or the processor's own), spill holds consumed indices
	// beyond idx — intervals learned through a lock chain and fetched
	// while concurrent episode-mates were still unknown. Entries exist
	// only for units the processor has actually faulted on, and are
	// values: a first fault on a unit allocates no cursor.
	fcur map[int]fetchCursor

	// Dynamic aggregation state.
	tracker *aggregate.Tracker
	groups  *aggregate.Groups

	// Engine event counters.
	nFaults    int
	nTwins     int
	nDiffs     int
	nIntervals int
	nPromoted  int // pages whose every stretch was saved: writes take the fast path

	// Reusable hot-path storage. Every buffer below is scratch that the
	// steady state recycles instead of reallocating: the engine's inner
	// loops (fault → fetch → apply, close → diff → publish, acquire →
	// delta) run allocation-free once these have grown to the workload's
	// high-water mark (see the AllocBudget tests).
	diffScr   mem.DiffScratch // closeInterval: the slabs this run's diffs live in
	unitsBuf  []int           // closeInterval: units written
	diffsBuf  []lrc.PageDiff  // closeInterval: non-empty diffs
	deltaBuf  []*lrc.Interval // applyAcquireStamp: store delta (lock grants)
	faultUnit [1]int          // readFault: single-unit fetch list
	fs        fetchScratch    // fetch and flush scratch
	arena     vc.StampArena   // sparse-stamp deviation storage (reset per trial)
	vtScratch vc.Time         // applyAcquireStamp: dense materialization

	// ownNoticeBytes is the notice wire size of the intervals closed since
	// the last barrier: what the held-unit walk takes off the episode's
	// total instead of visiting the notices.
	ownNoticeBytes int

	// grant is a queued Lock's grant and moves the home-state moves the
	// last barrier episode scheduled for this processor (it is their new
	// home): both written inside the gate by another processor before the
	// gate releases this one.
	grant lockGrant
	moves []rehomeMove
}

func newProc(s *System, id int) *Proc {
	tk := vc.NewTracked(s.cfg.Procs)
	p := &Proc{
		id:        id,
		sys:       s,
		rep:       mem.NewReplica(s.segBytes),
		pt:        mem.NewPageTable(s.numUnits),
		held:      make([]int32, 0, s.numUnits),
		heldMark:  make([]bool, s.numUnits),
		tk:        tk,
		memAccess: s.cost.MemAccess,
		vt:        tk.T,
		fcur:      make(map[int]fetchCursor),
	}
	// The segment starts zeroed and identical everywhere: readable.
	for u := 0; u < s.numUnits; u++ {
		p.setState(u, mem.ReadOnly)
	}
	if s.cfg.Dynamic {
		p.tracker = aggregate.NewTracker()
		p.groups = aggregate.New(s.tune.groupPages)
	}
	return p
}

// reset returns the processor to its post-newProc state while keeping
// every allocation — page table, scratch buffers, twin buffers, diff
// slabs (rewound: System.Reset has emptied the store that held their
// diffs) — so a multi-trial benchmark rebuilds no per-processor memory
// between trials. Replica frames pass through the recycler.
func (p *Proc) reset() {
	p.clock = sim.Clock{}
	p.rep.Zero()
	p.diffScr.Rewind()
	// The previous trial's intervals are dropped from the store; do not
	// pin them until the next lock acquire overwrites the buffer.
	clear(p.deltaBuf)
	p.deltaBuf = p.deltaBuf[:0]
	p.ownNoticeBytes = 0
	p.moves = p.moves[:0]
	p.tk.Rebase(&vc.Epoch{}) // zero time, empty deviation set, run-start epoch
	p.arena.Reset()
	p.writeOrder = p.writeOrder[:0]
	for u, c := range p.fcur {
		p.fcur[u] = fetchCursor{spill: c.spill[:0]}
	}
	for u := 0; u < p.sys.numUnits; u++ {
		p.setState(u, mem.ReadOnly)
	}
	if p.sys.cfg.Dynamic {
		p.tracker.Reset()
		p.groups.Rebuild(nil)
	}
	p.nFaults, p.nTwins, p.nDiffs, p.nIntervals, p.nPromoted = 0, 0, 0, 0, 0
}

// release hands the processor's page-sized storage — replica frames,
// write-set buffers, full-size diff-slab chunks — to the recycler and
// drops the replica, so a stray access after System.Release fails on a
// nil replica instead of reading a page some other run now owns.
func (p *Proc) release() {
	p.rep.Zero()
	p.rep = nil
	p.tlb, p.tlbWS = [tlbSize]tlbEntry{}, [tlbSize]*writeSet{}
	for _, ws := range p.wsets {
		mem.PutPage(ws.old)
	}
	p.wsets, p.checkTwins = nil, nil
	p.diffScr.Release()
	p.fs.coalesced.Release()
}

// ID returns the processor number (0-based).
func (p *Proc) ID() int { return p.id }

// NProcs returns the number of processors in the system.
func (p *Proc) NProcs() int { return p.sys.cfg.Procs }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() sim.Duration { return p.clock.Now() }

// Compute charges n abstract compute operations to the processor's
// clock, standing in for non-memory application work.
func (p *Proc) Compute(n int) {
	p.clock.Advance(sim.Duration(n) * p.memAccess)
}

func (p *Proc) unitOf(page int) int { return page / p.sys.cfg.UnitPages }

// --- access paths --------------------------------------------------------

// The translation cache has tlbSize entries, direct-mapped by the page
// number folded once onto itself: the fold keeps arrays that lie a
// multiple of the table size apart (Jacobi's two grids, the FFT's A and
// B) out of each other's slots. Over one round of the Figure 1+2 grid
// (78.5 M accesses, 229 k protection changes) 256 folded entries missed
// 0.16 M times, which is the refill after each drop and nothing else;
// 64 folded entries missed 2.9 M times, 256 unfolded 3.4 M, 64 unfolded
// 15.2 M.
const (
	tlbBits = 8
	tlbSize = 1 << tlbBits
)

func tlbIndex(page int) int { return (page ^ page>>tlbBits) & (tlbSize - 1) }

// tlbEntry caches what an access to one page needs once the protection
// check has passed: the frame holding the page's bytes (the shared zero
// frame while a page is readable but unmaterialized) and the
// collector's tag row for it (nil when collection is off or no diff was
// ever tagged into the page). readKey is tlbGen|page+1 while the page is
// readable; writeKey is the same once the page is writable and every
// stretch of its write set is saved, so that a write needs nothing more
// than the store (see noteWrite). Zero matches nothing.
//
// Everything an entry and its tlbWS slot cache changes only inside a
// fault (fetches materialize frames and tag rows, write faults
// materialize frames and append to wsets), at a protection change, or at
// a promotion, which sets writeKey in the entry itself; every fault and
// protection change ends in setState, which drops the whole table. So a
// cached write-set pointer never outlives a reallocation of wsets: every
// append to it is followed by setState. Replicas, page tables, write sets
// and tag rows are touched only by their own processor's goroutine, so
// no other goroutine can make an entry stale.
type tlbEntry struct {
	readKey, writeKey uint64
	frame             *[mem.PageSize]byte
	tags              *[mem.WordsPerPage]int32
}

// setState is the one place a unit's protection changes. Moving to the
// next generation drops every cached translation without touching the
// table (Storm at 256 processors takes a fault per page per interval;
// clearing a 2 KB table at each was 1.7 % of its run).
func (p *Proc) setState(u int, s mem.PageState) {
	if s == mem.Invalid {
		p.heldStale++
	} else if !p.heldMark[u] {
		p.hold(u)
	}
	p.pt.Set(u, s)
	p.tlbGen += 1 << 32
	if p.tlbGen == 0 {
		p.tlb = [tlbSize]tlbEntry{} // wrapped: old keys could match again
	}
}

// hold lists a unit that became valid. Out of line: most protection
// changes are between ReadOnly and ReadWrite, or re-validate a unit the
// list still has.
//
//go:noinline
func (p *Proc) hold(u int) {
	p.held = append(p.held, int32(u))
	p.heldMark[u] = true
}

// translate is the access path's miss side: the protection check and
// fault handling, then the entry fill.
func (p *Proc) translate(page int, write bool) *tlbEntry {
	u := p.unitOf(page)
	if write {
		if !p.pt.CanWrite(u) {
			p.writeFault(u, page)
		}
	} else if !p.pt.CanRead(u) {
		p.readFault(page)
	}
	i := tlbIndex(page)
	e := &p.tlb[i]
	e.readKey, e.writeKey = p.tlbGen|uint64(page+1), 0
	p.tlbWS[i] = nil
	if p.pt.CanWrite(u) {
		// The write fault materialized the page.
		e.frame = (*[mem.PageSize]byte)(p.rep.Page(page))
		ws := p.writeSetOf(page)
		p.tlbWS[i] = ws
		if ws.dirty == allStretches {
			e.writeKey = e.readKey
		}
	} else {
		e.frame = (*[mem.PageSize]byte)(p.rep.Frame(page))
	}
	e.tags = nil
	if c := p.sys.col; c != nil {
		e.tags = c.TagRow(p.id, page)
	}
	return e
}

// readWord charges one access, takes any fault, credits the collector
// and loads the word: the order every total depends on.
func (p *Proc) readWord(a mem.Addr) uint64 {
	p.clock.Advance(p.memAccess)
	page := mem.PageOf(a)
	e := &p.tlb[tlbIndex(page)]
	if e.readKey != p.tlbGen|uint64(page+1) {
		e = p.translate(page, false)
	}
	off := a & (mem.PageSize - 1)
	if e.tags != nil {
		if tag := e.tags[off>>mem.WordShift]; tag != 0 {
			p.sys.col.Credit(p.id, tag)
			e.tags[off>>mem.WordShift] = 0
		}
	}
	return binary.LittleEndian.Uint64(e.frame[off:])
}

// writeWord is readWord's counterpart: a local write drops the word's
// tag without credit.
func (p *Proc) writeWord(a mem.Addr, v uint64) {
	p.clock.Advance(p.memAccess)
	page := mem.PageOf(a)
	off := a & (mem.PageSize - 1)
	e := &p.tlb[tlbIndex(page)]
	if e.writeKey != p.tlbGen|uint64(page+1) {
		e = p.noteWrite(page, off)
	}
	if e.tags != nil {
		e.tags[off>>mem.WordShift] = 0
	}
	binary.LittleEndian.PutUint64(e.frame[off:], v)
}

// noteWrite is writeWord's miss side, taken while the page's write set
// may lack the stretch at off: translate unless the entry already holds
// the page writable, then record the write.
func (p *Proc) noteWrite(page int, off mem.Addr) *tlbEntry {
	i := tlbIndex(page)
	e := &p.tlb[i]
	if e.readKey != p.tlbGen|uint64(page+1) || p.tlbWS[i] == nil {
		e = p.translate(page, true)
	}
	if p.recordWrite(p.tlbWS[i], e.frame, off) {
		// Use readKey, not a key taken before translate: a fault there
		// moved the generation.
		e.writeKey = e.readKey
	}
	return e
}

// --- write detection -----------------------------------------------------

// writeSet is the write detection of one page of a writable unit, in
// software. TreadMarks twins the whole page at the write fault because
// the hardware cannot say which words are written; every store here goes
// through the access path, so the page's write set saves each
// mem.StretchBytes stretch just before the interval's first write into it
// instead, and closeInterval diffs the saved stretches alone
// (mem.EncodeStretchesInto). Bit i of dirty says stretch i is saved in
// old; the rest of old is whatever an earlier interval or run left there
// and is never read.
type writeSet struct {
	dirty uint32
	old   *[mem.PageSize]byte
}

// allStretches is a write set with every stretch saved: writes to its
// page take the access path's fast side.
const allStretches = ^uint32(0)

// writeSetOf returns the write set of a page of a writable unit. Every
// writable unit is on writeOrder; the translation that follows a write
// fault finds its unit last.
func (p *Proc) writeSetOf(page int) *writeSet {
	up := p.sys.cfg.UnitPages
	u := page / up
	for k := len(p.writeOrder) - 1; ; k-- {
		if p.writeOrder[k] == u {
			return &p.wsets[k*up+page-u*up]
		}
	}
}

// promoteAt is the stretch at which a write set stops saving stretch by
// stretch: the interval's write into a promoteAt-th stretch of a page
// saves every stretch not saved yet, and the page's writes move to the
// fast path. A saved stretch that is never written costs only its
// compare at close, so a page written in several stretches is cheaper
// saved whole than through a miss per stretch; a page written in one or
// two (Storm's one word per page) is never saved whole. Waiting for all
// 32 stretches leaves a partly written page on the miss side for every
// write (DESIGN §3 has the measurement).
const promoteAt = 4

// recordWrite is the step every store into a writable page takes before
// it lands, frame being the page's bytes: save the stretch at off on the
// interval's first write into it (all of the page's unsaved stretches at
// the promoteAt-th). It reports whether every stretch of the page is now
// saved.
func (p *Proc) recordWrite(ws *writeSet, frame *[mem.PageSize]byte, off mem.Addr) bool {
	bit := uint32(1) << (off / mem.StretchBytes)
	if ws.dirty&bit != 0 {
		return ws.dirty == allStretches
	}
	save := bit
	if bits.OnesCount32(ws.dirty) == promoteAt-1 {
		save = ^ws.dirty
	}
	for m := uint64(save); m != 0; {
		lo := bits.TrailingZeros64(m)       // the next run of stretches to save
		n := bits.TrailingZeros64(^m >> lo) // and its length
		b, e := lo*mem.StretchBytes, (lo+n)*mem.StretchBytes
		copy(ws.old[b:e], frame[b:e])
		m &^= (1<<n - 1) << lo
	}
	if ws.dirty |= save; ws.dirty == allStretches {
		p.nPromoted++
		return true
	}
	return false
}

// ReadF64 loads the float64 at word-aligned shared address a.
func (p *Proc) ReadF64(a mem.Addr) float64 { return math.Float64frombits(p.readWord(a)) }

// WriteF64 stores the float64 at word-aligned shared address a.
func (p *Proc) WriteF64(a mem.Addr, v float64) { p.writeWord(a, math.Float64bits(v)) }

// ReadI64 loads the int64 at word-aligned shared address a.
func (p *Proc) ReadI64(a mem.Addr) int64 { return int64(p.readWord(a)) }

// WriteI64 stores the int64 at word-aligned shared address a.
func (p *Proc) WriteI64(a mem.Addr, v int64) { p.writeWord(a, uint64(v)) }

// --- fault handling ------------------------------------------------------

// writeFault models the protection trap on a write to a unit that is not
// ReadWrite: fetch current contents if invalid, then twin every page of
// the unit (the multiple-writer protocol's write detection). The twin is
// charged here, as TreadMarks pays for it; what the host does is start
// each page's write set empty, with a buffer to save stretches into.
func (p *Proc) writeFault(u, page int) {
	cost := p.sys.cost
	if p.pt.CanRead(u) {
		// Fresh trap; a write to an invalid unit is one trap that both
		// fetches (readFault below charges it) and twins.
		p.clock.Advance(cost.PageFault)
	} else {
		p.readFault(page)
	}
	up := p.sys.cfg.UnitPages
	live := len(p.writeOrder) * up
	for s := 0; s < up; s++ {
		if live+s == len(p.wsets) {
			p.wsets = append(p.wsets, writeSet{})
		}
		ws := &p.wsets[live+s]
		if ws.old == nil {
			ws.old = mem.GetPage()
		}
		ws.dirty = 0
		frame := p.rep.Page(u*up + s) // writable pages are materialized
		if p.sys.twinHook != nil {
			if live+s == len(p.checkTwins) {
				p.checkTwins = append(p.checkTwins, nil)
			}
			p.checkTwins[live+s] = mem.MakeTwinInto(p.checkTwins[live+s], frame)
		}
		p.clock.Advance(cost.TwinPerPage)
		p.nTwins++
	}
	p.writeOrder = append(p.writeOrder, u)
	// This drops every cached write-set pointer the append above may
	// have left dangling.
	p.setState(u, mem.ReadWrite)
	p.clock.Advance(cost.ProtOp)
}

// readFault models the protection trap on an access to an invalid unit.
// It determines the consistency unit (static) or page group (dynamic) to
// bring up to date, fetches the stale units by their home bits, and
// validates.
func (p *Proc) readFault(page int) {
	cost := p.sys.cost
	if trc := p.sys.trc; trc != nil {
		trc.FaultBegin(p.id, page, p.unitOf(page), p.clock.Now())
	}
	p.clock.Advance(cost.PageFault)
	p.nFaults++
	var first int32 // the fault's first collector exchange
	if c := p.sys.col; c != nil {
		first = c.Exchanges(p.id)
	}

	cfg := p.sys.cfg
	faultUnit := p.unitOf(page)

	// The set of units to fetch together. The single-unit case reuses a
	// fixed one-element buffer on the Proc: read faults are the hottest
	// engine path and must not allocate.
	var units []int
	if cfg.Dynamic {
		// Units are single pages; fetch the page's group.
		p.tracker.Touch(page)
		if g := p.groups.GroupOf(page); g != nil {
			units = g
		} else {
			p.faultUnit[0] = page
			units = p.faultUnit[:]
		}
	} else {
		p.faultUnit[0] = faultUnit
		units = p.faultUnit[:]
	}

	// Each stale unit's data is fetched by its home bit (messages,
	// clock charges, replica updates), consuming its missing-write
	// state.
	p.fetch(units)

	// Validate. Static: the whole unit becomes readable. Dynamic: only
	// the faulted page is validated; prefetched group members keep
	// their updates but stay Invalid so the access pattern remains
	// observable (§4).
	if cfg.Dynamic {
		p.setState(page, mem.ReadOnly)
		p.clock.Advance(cost.ProtOp)
	} else {
		p.setState(faultUnit, mem.ReadOnly)
		p.clock.Advance(cost.ProtOp)
	}

	if trc := p.sys.trc; trc != nil {
		trc.FaultEnd(p.id, page, p.clock.Now())
	}
	if c := p.sys.col; c != nil {
		c.OnFault(p.id, first)
	}
}
