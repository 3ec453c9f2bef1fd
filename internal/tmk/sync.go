package tmk

import (
	"fmt"
	"slices"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// closeInterval ends the processor's current interval if it wrote
// anything: every written unit is diffed page by page, the stretches its
// write set saved against the page (eager diffing — see DESIGN.md §3),
// the diffs of home units are flushed to their homes (flushHome), the
// interval is published with one write notice per unit plus every
// diff, the write sets become free again (emptying writeOrder frees
// them all), and the units revert to ReadOnly so the next write faults
// and starts a new one.
func (p *Proc) closeInterval() {
	if len(p.writeOrder) == 0 {
		return
	}
	cost := p.sys.cost
	up := p.sys.cfg.UnitPages
	seq := p.tk.Tick(p.id)

	units := p.unitsBuf[:0]
	diffs := p.diffsBuf[:0]
	for k, u := range p.writeOrder {
		for s := 0; s < up; s++ {
			page := u*up + s
			ws := &p.wsets[k*up+s]
			d := mem.EncodeStretchesInto(&p.diffScr, ws.dirty, ws.old[:], p.rep.Page(page))
			if hook := p.sys.twinHook; hook != nil {
				hook(p, page, p.checkTwins[k*up+s], d)
			}
			p.clock.Advance(cost.DiffPerPage)
			p.nDiffs++
			if !d.Empty() {
				diffs = append(diffs, lrc.PageDiff{Page: page, D: d})
			}
		}
		p.setState(u, mem.ReadOnly)
		p.clock.Advance(cost.ProtOp)
		units = append(units, u)
	}
	p.unitsBuf, p.diffsBuf = units, diffs
	id := vc.IntervalID{Proc: p.id, Seq: seq}
	// The close-time stamp: sparse mode snapshots the epoch-relative
	// deviations (O(deviations) storage per interval); dense mode clones
	// the full vector — the reference cost.
	var ts vc.Stamp
	if p.sys.sparseMode() {
		ts = p.tk.Snapshot(&p.arena)
	} else {
		ts = vc.DenseStamp(p.vt.Clone())
	}
	// Home units' diffs are flushed before the interval is published;
	// the interval keeps all of them.
	p.flushHome(diffs)
	iv := p.sys.store.Record(id, ts, units, diffs)
	p.ownNoticeBytes += iv.NoticeBytes()
	p.nIntervals++
	p.writeOrder = p.writeOrder[:0]
}

// consumeDelta applies the write notices of the intervals in ivs that p
// has not heard of yet — a lock acquire's store delta holds nothing else,
// a barrier episode's shared delta also holds p's own intervals and
// whatever p learned of the episode through a lock chain. A notice only
// invalidates its unit, charging ProtOp if the unit was valid; the fault
// that follows rebuilds the missing writes (notices.go). It returns the
// wire size of the consumed notices. p.vt must not move until the walk
// is over.
func (p *Proc) consumeDelta(ivs []*lrc.Interval) int {
	if c := p.sys.noticeCheck; c != nil {
		c.delta(p, ivs)
	}
	bytes, protOp := 0, p.sys.cost.ProtOp
	for _, iv := range ivs {
		if p.vt.KnowsInterval(iv.ID.Proc, iv.ID.Seq) {
			continue
		}
		bytes += iv.NoticeBytes()
		for _, u := range iv.Units {
			if p.pt.State(u) != mem.Invalid {
				p.setState(u, mem.Invalid)
				p.clock.Advance(protOp)
			}
		}
	}
	return bytes
}

// applyAcquireStamp consumes the write notices between the processor's
// vector time and a lock grant's stamped release time, and merges the
// stamp. It returns the wire size of the consumed notices, which the
// caller charges as piggybacked consistency information on the grant
// message. When the stamp is sparse and its epoch base is not newer than
// the processor's — always, between barriers — only the stamp's
// deviations can exceed the processor's time, so the store delta and the
// merge are O(deviations + delta) instead of O(nprocs).
func (p *Proc) applyAcquireStamp(s vc.Stamp) int {
	if s.Len() == 0 {
		return 0 // zero stamp: first acquisition, nothing to learn
	}
	if b := s.Base(); b != nil && b.Seq <= p.tk.Base().Seq {
		procs, seqs := s.Deviations()
		p.deltaBuf = p.sys.store.DeltaDevsInto(p.vt, procs, seqs, p.deltaBuf)
		bytes := p.consumeDelta(p.deltaBuf)
		p.tk.MergeStamp(s)
		return bytes
	}
	p.vtScratch = s.Dense(p.vtScratch)
	p.deltaBuf = p.sys.store.DeltaInto(p.vt, p.vtScratch, p.deltaBuf)
	bytes := p.consumeDelta(p.deltaBuf)
	p.tk.MergeTime(p.vtScratch)
	return bytes
}

// rebuildGroups recomputes the processor's page groups from the faults
// of the interval that just ended (§4: "page groups are computed at each
// synchronization"). An interval with no faults carries no information
// about the access pattern, so the existing groups are kept; an interval
// whose faults touch a different page set replaces them (the paper's
// split/revert behaviour, with one interval of hysteresis).
func (p *Proc) rebuildGroups() {
	if p.groups != nil && p.tracker.Len() > 0 {
		p.groups.Rebuild(p.tracker.Take())
	}
}

// --- barrier --------------------------------------------------------------

// barrierGrant is every processor's release from one barrier episode:
// the episode's epoch (the merged vector time, immutable and shared),
// what finishEpisode computed once for everyone — the episode's causally
// sorted intervals, their notice count and their notices' wire size —
// and the episode number. Each processor's release time is its own, in
// the gate.
//
// delta is the System's one buffer, refilled every episode. No processor
// reads it after consuming its grant, which it does before it can arrive
// at the next barrier, and the next refill waits for every arrival; the
// gate's mutex orders the two.
type barrierGrant struct {
	epoch       *vc.Epoch
	delta       []*lrc.Interval
	notices     int
	noticeBytes int
	episode     int
}

// barrierFabric is one barrier message fabric. It only prices an
// episode's messages; Proc.Barrier does the episode's shared work.
// arrive and release run inside the gate.
type barrierFabric interface {
	// arrive prices p's arrival path, on p's clock as far as p carries
	// it, and reports whether it completed the episode and, if so, when
	// the manager has serviced every arrival.
	arrive(p *Proc) (done sim.Duration, last bool)
	// release prices the episode's release from done, and releases every
	// processor in the gate at the time its release reaches it. g is the
	// episode's grant.
	release(done sim.Duration, g *barrierGrant)
	// depart prices what is left of p's release leg once p, released at
	// at, consumed notices of noticeBytes wire bytes from the grant.
	depart(p *Proc, at sim.Duration, noticeBytes int)
}

// DefaultBarrier is the paper's barrier: flat and centralized.
const DefaultBarrier = "central"

// DefaultBarrierRadix is the tree barrier's default fan-in.
const DefaultBarrierRadix = 4

// barriers is the barrier axis: each name's factory builds a fabric
// instance for one System build.
var barriers = registry.New("barrier", "barrier", DefaultBarrier, map[string]func(s *System) barrierFabric{
	"central": func(s *System) barrierFabric { return &barrier{sys: s} },
	"tree":    func(s *System) barrierFabric { return newTreeBarrier(s) },
})

// BarrierNames returns the barrier fabric names, sorted.
func BarrierNames() []string { return barriers.Names() }

// unitWriter is one entry of the episode index: who wrote the unit
// during episode number episode and, when the barrier decides units
// (decideUnits), its run epRuns[lo:lo+n] — the episode delta's intervals
// that wrote it, in the delta's causal order. Entries of other episodes
// are stale and read as "not written".
type unitWriter struct {
	episode int32
	writer  int32 // the sole writing processor, or severalWriters
	lo, n   int32
}

const severalWriters = -1

// finishEpisode runs the completing processor's episode duties, called
// inside the gate after every arrival merged into tk: mint the episode's
// epoch from the merged time, build the episode's delta — the one delta
// computation of a barrier, shared by every grant, the decision pass and
// the tree fabric's release payload — and from it the episode index
// (indexEpisode), decide every written unit's protocol and home
// (decideUnits), record the episode log (under Collect), and rebase the
// register for the next episode.
func (s *System) finishEpisode(tk *vc.Tracked, episode int) barrierGrant {
	merged := tk.T.Clone()
	epoch := vc.NewEpoch(episode, merged)
	if s.sparseMode() {
		// The register's deviation set is the processors that published
		// since the previous epoch: only their runs are visited.
		touched := tk.Devs()
		s.seqScratch = s.seqScratch[:0]
		for _, q := range touched {
			s.seqScratch = append(s.seqScratch, merged[q])
		}
		s.epDelta = s.store.DeltaDevsInto(s.lastBarrierVT, touched, s.seqScratch, s.epDelta)
	} else {
		s.epDelta = s.store.DeltaInto(s.lastBarrierVT, merged, s.epDelta)
	}
	s.lastBarrierVT = merged
	g := barrierGrant{epoch: epoch, delta: s.epDelta, episode: episode}
	g.notices, g.noticeBytes = s.indexEpisode(s.epDelta, int32(episode), s.decides())
	if s.decides() {
		s.decideUnits(merged, episode)
	}
	if s.cfg.Collect {
		s.barrierLog = append(s.barrierLog, merged)
	}
	tk.Rebase(epoch)
	return g
}

// indexEpisode returns the number of write notices in delta and their
// wire size, and indexes delta as episode ep: every written unit's
// epWriter entry is stamped ep and names its writer, which the held-unit
// walk reads (see applyBarrierGrant). With runs, every written unit is
// also listed in epUnits, and its entry gets its run, laid out back to
// back in epRuns.
func (s *System) indexEpisode(delta []*lrc.Interval, ep int32, runs bool) (notices, noticeBytes int) {
	s.epUnits = s.epUnits[:0]
	for _, iv := range delta {
		notices += len(iv.Units)
		noticeBytes += iv.NoticeBytes()
		w := int32(iv.ID.Proc)
		for _, u := range iv.Units {
			if e := &s.epWriter[u]; e.episode != ep {
				*e = unitWriter{episode: ep, writer: w, n: 1}
				if runs {
					s.epUnits = append(s.epUnits, int32(u))
				}
			} else {
				e.n++
				if e.writer != w {
					e.writer = severalWriters
				}
			}
		}
	}
	if !runs {
		return notices, noticeBytes
	}
	// Each run starts where the previous one ends and fills in delta
	// order; a subsequence of a causal order is in that order.
	total := int32(0)
	for _, u := range s.epUnits {
		e := &s.epWriter[u]
		e.lo, total, e.n = total, total+e.n, 0
	}
	s.epRuns = slices.Grow(s.epRuns[:0], int(total))[:total]
	for _, iv := range delta {
		for _, u := range iv.Units {
			e := &s.epWriter[u]
			s.epRuns[e.lo+e.n] = iv
			e.n++
		}
	}
	return notices, noticeBytes
}

// decides reports whether barriers decide units: an adaptive policy may
// switch them, or the placement may move their homes.
func (s *System) decides() bool { return s.policy != nil || s.rehome }

// decideUnits is the barrier's one decision pass: every unit written
// during the episode that just ended, in ascending order — which keeps
// the move schedule, and with it the send order, deterministic — goes
// through the adaptive switch rule (adaptivePolicy.decide) and then the
// placement's rehoming step (rehomeUnit), each reading the unit's run of
// the episode index. It runs inside the gate, after every arrival merged
// into merged and before any processor is released; the moves it
// schedules are priced per processor after the release (settleMoves).
func (s *System) decideUnits(merged vc.Time, episode int) {
	slices.Sort(s.epUnits)
	contended := s.policy != nil && s.contended()
	for _, u32 := range s.epUnits {
		u := int(u32)
		e := s.epWriter[u]
		ivs := s.epRuns[e.lo : e.lo+e.n]
		switched := s.policy != nil && s.policy.decide(s, u, ivs, contended, merged, episode)
		if s.rehome {
			s.rehomeUnit(u, ivs, switched)
		}
	}
}

// barrier is the centralized TreadMarks barrier: arrivals carry each
// processor's new write notices to the manager (processor 0), which
// merges vector times and sends each departer the notices it lacks at
// release. The 8-proc golden reference — its wire counts are pinned
// bit-for-bit.
type barrier struct {
	sys      *System
	arrived  int
	maxClock sim.Duration // the latest arrival at the manager
}

func (b *barrier) arrive(p *Proc) (sim.Duration, bool) {
	s := b.sys
	// Arrival message to the manager with this processor's notices
	// (already published to the store; we charge their size).
	t := s.net.SendLeg(simnet.BarrierArrive, p.id, barrierManager, 16, p.clock.Now())
	p.clock.Advance(t.Total)
	b.maxClock = max(b.maxClock, p.clock.Now())
	b.arrived++
	if b.arrived < s.cfg.Procs {
		return 0, false
	}
	done := b.maxClock + sim.Duration(b.arrived)*s.cost.RequestService
	b.arrived, b.maxClock = 0, 0
	return done, true
}

// release broadcasts: every processor leaves at the manager's merge.
func (b *barrier) release(done sim.Duration, _ *barrierGrant) {
	for id := range b.sys.procs {
		b.sys.gate.release(id, done+b.sys.cost.BarrierManager)
	}
}

// depart prices the manager→departer leg, whose payload is the
// departer's own notice delta.
func (b *barrier) depart(p *Proc, at sim.Duration, noticeBytes int) {
	rt := b.sys.net.SendLeg(simnet.BarrierRelease, barrierManager, p.id, 8+noticeBytes, at)
	p.clock.Advance(rt.Total)
}

// applyBarrierGrant consumes a barrier grant: the episode's write
// notices that are new to the processor are applied and its register
// rebases onto the new epoch. Returns the consumed notices' wire size.
//
// A notice is only its invalidation (notices.go), so the walk takes the
// shorter side. A processor that knows nothing of the episode but its
// own intervals — every processor of a barrier-only program — owes an
// invalidation to exactly the units it holds that the index names with a
// writer other than itself: when it holds no more units than the episode
// has notices it walks those, and its notices' wire size is the
// episode's less its own. Otherwise (a prefix learned through a lock
// chain, more held units than notices) it walks the episode's delta,
// skipping what it knows. Both charge ProtOp once per unit that was
// valid and is named by a notice new to the processor.
func (p *Proc) applyBarrierGrant(g barrierGrant) int {
	devs := p.tk.Devs()
	heldWalk := !p.sys.tune.fullBarrierWalk && len(p.held)-p.heldStale <= g.notices &&
		(len(devs) == 0 || len(devs) == 1 && int(devs[0]) == p.id)
	var bytes, visited int
	if heldWalk {
		if c := p.sys.noticeCheck; c != nil {
			c.delta(p, g.delta)
		}
		bytes, visited = g.noticeBytes-p.ownNoticeBytes, len(p.held)
		p.invalidateHeld(g.episode)
	} else {
		bytes, visited = p.consumeDelta(g.delta), g.notices
	}
	p.ownNoticeBytes = 0
	p.tk.Rebase(g.epoch)
	if hook := p.sys.barrierHook; hook != nil {
		hook(p, heldWalk, visited)
	}
	return bytes
}

// invalidateHeld is the held-unit walk: every listed unit that is still
// valid and that the episode's index names with a writer other than p is
// invalidated and charged; those and the units invalidated since the
// last walk leave the list. Walking the stale entries is paid for by the
// notice visits that made them stale.
func (p *Proc) invalidateHeld(episode int) {
	written, protOp := p.sys.epWriter, p.sys.cost.ProtOp
	ep, me := int32(episode), int32(p.id)
	kept := p.held[:0]
	for _, h := range p.held {
		u := int(h)
		if p.pt.State(u) != mem.Invalid {
			if w := written[u]; w.episode != ep || w.writer == me {
				kept = append(kept, h)
				continue
			}
			p.setState(u, mem.Invalid)
			p.clock.Advance(protOp)
		}
		p.heldMark[u] = false
	}
	p.held, p.heldStale = kept, 0
}

// Barrier synchronizes all processors. On departure every processor has
// invalidated all units written before the barrier by any other
// processor. Arrival order changes no total, so a barrier does not wait
// for its turn in the gate; the processor leaves the gate's order until
// the episode's last arrival releases it. The episode's shared work runs
// once, inside the gate: the arrivals merge into the System's register,
// and the last one finishes the episode (finishEpisode) and hands every
// processor the grant before the fabric releases them.
func (p *Proc) Barrier() {
	p.closeInterval()
	s := p.sys
	if trc := s.trc; trc != nil {
		trc.BarrierEnter(p.id, p.clock.Now())
	}
	gt := &s.gate
	gt.mu.Lock()
	gt.block(p.id)
	// Merge this processor's time into the episode register: O(own
	// deviations) in sparse mode, entrywise in dense mode.
	if s.sparseMode() {
		s.arrivals.MergeStamp(p.tk.Snapshot(&p.arena))
	} else {
		s.arrivals.MergeTime(p.vt)
	}
	if done, last := s.barrier.arrive(p); last {
		// Every processor is blocked in this barrier: the adaptive
		// policy (if any) may now flip units' home bits, and the
		// placement (if units may be home) may move unit homes — see
		// decideUnits. The moves they schedule are priced per
		// processor after the release.
		s.episode++
		s.epGrant = s.finishEpisode(s.arrivals, s.episode)
		s.barrier.release(done, &s.epGrant)
	}
	at := gt.park(p.id)
	g := s.epGrant
	p.clock.AdvanceTo(at)
	s.barrier.depart(p, at, p.applyBarrierGrant(g))
	p.settleMoves()
	p.rebuildGroups()
	if trc := s.trc; trc != nil {
		trc.BarrierLeave(p.id, g.episode, p.clock.Now())
	}
}

// barrierManager is the barrier manager processor (the root of every
// fabric's topology).
const barrierManager = 0

// --- locks -----------------------------------------------------------------

// lockGrant is what a lock grant carries besides its time. A queued
// requester's grant is written into its Proc by the releaser, inside the
// gate, before the gate releases it at the grant time.
type lockGrant struct {
	ts   vc.Stamp // releaser's stamped vector time (zero on first acquisition)
	from int      // processor the grant message travels from
}

type lockWaiter struct {
	proc       int
	reqArrival sim.Duration
}

// lock implements TreadMarks' distributed lock: requests go to a static
// manager, which forwards to the last holder; the grant carries the
// releaser's consistency information. Releases are lazy (no message).
// Its state is read and written only inside the System's gate.
type lock struct {
	id      int
	manager int

	held   bool
	holder int
	// lastTS is the release-time stamp the next grant carries: a sparse
	// snapshot in sparse mode, a dense clone (into the reused lastVT
	// buffer) in dense mode. Only the current grant holder ever reads
	// it, and the next overwrite (by that holder's own Unlock) happens
	// after its acquire consumed the snapshot.
	lastTS       vc.Stamp
	lastVT       vc.Time
	releaseClock sim.Duration
	queue        []lockWaiter
}

func newLock(id, manager int) *lock {
	return &lock{id: id, manager: manager, holder: manager}
}

// Lock acquires global lock l, blocking until granted, and applies the
// releaser's write notices (lazy release consistency's acquire step).
// The request takes effect in virtual-time order (see gate).
func (p *Proc) Lock(l int) {
	p.closeInterval()
	lk := p.sys.locks[l]
	cost := p.sys.cost
	net := p.sys.net
	gt := &p.sys.gate

	gt.enter(p.id, p.clock.Now())
	// Lock caching: if this processor was the last holder and nobody
	// took the lock since, TreadMarks grants locally — no messages, no
	// consistency information to apply.
	if !lk.held && lk.holder == p.id {
		lk.held = true
		gt.leave()
		p.clock.Advance(cost.LockService / 4)
		if trc := p.sys.trc; trc != nil {
			trc.LockAcquire(p.id, lk.id, p.clock.Now())
		}
		return
	}
	// Request to the manager (+ forward to last holder if different).
	// Control legs are priced payload-free: the 16 header bytes fold
	// into the fixed leg cost (SendControl), as in the pre-netmodel
	// engine's arithmetic.
	if trc := p.sys.trc; trc != nil {
		trc.LockRequest(p.id, lk.id, p.clock.Now())
	}
	t := net.SendControl(simnet.LockRequest, p.id, lk.manager, 16, p.clock.Now())
	reqArrival := p.clock.Now() + t.Total
	if lk.holder != lk.manager || lk.held {
		ft := net.SendControl(simnet.LockForward, lk.manager, lk.holder, 16, reqArrival)
		reqArrival += ft.Total
	}

	if !lk.held {
		lk.held = true
		g := lockGrant{ts: lk.lastTS, from: lk.holder}
		lk.holder = p.id
		grantAt := sim.Meet(reqArrival, lk.releaseClock) + cost.LockService
		gt.leave()
		p.finishAcquire(lk, g, grantAt)
		return
	}
	lk.queue = append(lk.queue, lockWaiter{proc: p.id, reqArrival: reqArrival})
	gt.block(p.id)
	grantAt := gt.park(p.id)
	p.finishAcquire(lk, p.grant, grantAt)
}

// finishAcquire consumes a lock grant given at time at: charges the grant
// message and its piggybacked notices, then invalidates.
func (p *Proc) finishAcquire(lk *lock, g lockGrant, at sim.Duration) {
	p.clock.AdvanceTo(at)
	noticeBytes := p.applyAcquireStamp(g.ts)
	t := p.sys.net.SendLeg(simnet.LockGrant, g.from, p.id, 16+noticeBytes, at)
	p.clock.Advance(t.Total)
	if trc := p.sys.trc; trc != nil {
		trc.LockAcquire(p.id, lk.id, p.clock.Now())
	}
	p.rebuildGroups()
}

// Unlock releases global lock l. The release itself is lazy: consistency
// information moves only when the next acquirer's grant is produced. It
// takes effect in virtual-time order too: a processor still running
// below the releaser's clock may yet request the lock, and in virtual
// time its request came first.
func (p *Proc) Unlock(l int) {
	p.closeInterval()
	lk := p.sys.locks[l]
	cost := p.sys.cost
	gt := &p.sys.gate

	gt.enter(p.id, p.clock.Now())
	if !lk.held || lk.holder != p.id {
		gt.leave()
		panic("tmk: Unlock by non-holder")
	}
	if p.sys.sparseMode() {
		// O(deviations) snapshot from the holder's arena: only the next
		// grant holder reads it, before the holder's next Unlock.
		lk.lastTS = p.tk.Snapshot(&p.arena)
	} else {
		// Reuse the release-time snapshot's storage (the dense
		// reference cost: one full-vector copy per release).
		if lk.lastVT == nil {
			lk.lastVT = p.vt.Clone()
		} else {
			lk.lastVT.CopyFrom(p.vt)
		}
		lk.lastTS = vc.DenseStamp(lk.lastVT)
	}
	lk.releaseClock = p.clock.Now()
	if trc := p.sys.trc; trc != nil {
		trc.LockRelease(p.id, lk.id, p.clock.Now())
	}
	if len(lk.queue) > 0 {
		w := lk.queue[0]
		lk.queue = lk.queue[1:]
		lk.holder = w.proc
		p.sys.procs[w.proc].grant = lockGrant{ts: lk.lastTS, from: p.id}
		gt.release(w.proc, sim.Meet(lk.releaseClock, w.reqArrival)+cost.LockService)
		gt.leave()
		return
	}
	lk.held = false
	gt.leave()
}

// deadlock describes a run the gate aborted, one line per processor left
// waiting: the lock it is queued for and that lock's holder, or the
// barrier episode it waits in and how many processors have arrived. Call
// it once every processor goroutine has ended.
func (s *System) deadlock() string {
	waits := make([]string, len(s.procs))
	for _, lk := range s.locks {
		holder := "waiting"
		if s.gate.state[lk.holder] == done {
			holder = "returned"
		}
		for _, w := range lk.queue {
			waits[w.proc] = fmt.Sprintf("waits for lock %d, held by processor %d (%s)", lk.id, lk.holder, holder)
		}
	}
	var arrived []int
	for id, st := range s.gate.state {
		if st == blocked && waits[id] == "" {
			arrived = append(arrived, id)
		}
	}
	for _, id := range arrived {
		waits[id] = fmt.Sprintf("waits in barrier episode %d: %d of %d processors arrived", s.episode+1, len(arrived), len(s.procs))
	}
	report := "tmk: deadlock: no processor can run"
	for id, w := range waits {
		if w != "" {
			report += fmt.Sprintf("\n  processor %d %s", id, w)
		}
	}
	return report
}
