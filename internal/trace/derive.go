package trace

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Totals are the wire totals accumulated over one run's message events:
// message count, payload bytes, cumulative queue delay.
type Totals struct {
	Msgs  int64        `json:"messages"`
	Bytes int64        `json:"bytes"`
	Queue sim.Duration `json:"queue"`
}

// Derived is the outcome of re-pricing a captured run's event stream
// through another interconnect: the totals the engine would have
// produced on that network without re-executing the application.
//
// Soundness rests on network invariance of the message sequence: the
// engine's wire behavior is a function of the program's sharing
// pattern, not of message prices, for every app whose control flow does
// not read the virtual clock (branch-and-bound TSP does, via
// lock-order-dependent pruning — see the replay-safety classification
// in internal/apps). For invariant apps the derived message and byte
// totals are exact; Time and Queue re-create one valid pricing order
// (the recorded one), so on contended models they can drift from a real
// target-network run by sub-percent pricing-order effects (the same
// departers-race that makes two real runs differ). Derive additionally
// self-checks: the base-model half of the walk must reproduce the
// recorded totals and every reconstructed barrier release, tree wave
// and lock grant time bit-identically, or it returns an error and the
// caller falls back to a real run.
type Derived struct {
	// Network is the model the derivation priced through.
	Network string `json:"network"`
	// Time is the derived simulated completion time: every processor's
	// recorded final clock shifted by its accumulated pricing offset.
	Time sim.Duration `json:"time"`
	Totals
	// Gate and BaseGate record, per completed barrier episode, whether
	// the adaptive protocol's contention gate (sim.CostModel.Contended)
	// was open at that episode's completion point under the target and
	// base pricing respectively. The harness
	// uses them to decide when an adaptive cell may be derived: if the
	// verdict sequence matches the base run's, the adaptive policy would
	// have made identical switch decisions on the target network.
	Gate     []bool `json:"-"`
	BaseGate []bool `json:"-"`
}

// derivation is the walk state for one Derive call.
type derivation struct {
	s      *stream
	n      int
	cost   sim.CostModel
	base   netmodel.Model
	target netmodel.Model
	tree   bool
	radix  int

	// delta[p]: target-minus-base offset of processor p's virtual clock
	// at the current stream position.
	delta []sim.Duration

	// Base/target running totals. Message and byte counts are shared —
	// re-pricing never changes what was sent.
	msgs         int64
	bytes        int64
	baseQ, targQ sim.Duration

	// Pending same-clock exchange fan-out per processor: the engine
	// prices a fault's per-peer exchanges all at one clock and then
	// advances by the slowest, so the offset update is max-target minus
	// max-base over the group, applied lazily at the next event that
	// touches the processor's clock.
	pendOpen           []bool
	pendAt             []sim.Duration
	pendBase, pendTarg []sim.Duration

	// Central-barrier episode reconstruction.
	arriveEp, releaseEp []int
	eps                 map[int]*centralEpisode
	gate, baseGate      []bool

	// Tree-barrier episode reconstruction (episodes are serialized by
	// construction, so plain arrays suffice).
	nkids              []int
	cmplBase, cmplTarg []sim.Duration
	grantBase, grantTg []sim.Duration
	waveLegs           int

	// Lock grant reconstruction. reqMgr[p] is the manager p's pending
	// request went to, or -1 once the request has been forwarded.
	pendLock           []int32
	reqMgr             []int
	reqBase, reqTarg   []sim.Duration
	lastRelB, lastRelT map[int]sim.Duration
}

type centralEpisode struct {
	arrived, released  int
	basePost, targPost sim.Duration
	baseRel, targRel   sim.Duration
}

// Derive re-prices the captured run through the named interconnect and
// reconstructs its totals there. The capture must be complete (RunEnd
// seen). An error means the stream could not be soundly re-priced —
// base-model reconstruction failed to reproduce the recorded run
// bit-identically — and the caller must fall back to a real engine run.
//
// Derive does not hold the sink's lock while it walks: any number of
// derivations of one ended capture may run at once.
func (ms *MemSink) Derive(network string) (*Derived, error) {
	s, err := ms.read("derive")
	if err != nil {
		return nil, err
	}
	defer ms.readDone()
	return s.derive(network)
}

func (s *stream) derive(network string) (*Derived, error) {
	meta := s.meta
	// Every walk array is sized by procs, so a capture that could not
	// finish the walk for want of its final clocks is refused first.
	if meta.Procs <= 0 || len(s.clocks) != meta.Procs {
		return nil, fmt.Errorf("trace: capture has %d final clocks for %d processors", len(s.clocks), meta.Procs)
	}
	if err := s.checkProcs(); err != nil {
		return nil, err
	}
	cost := sim.DefaultCostModel()
	if meta.Cost != nil {
		cost = *meta.Cost
	}
	base, err := netmodel.New(meta.Network, cost)
	if err != nil {
		return nil, err
	}
	target, err := netmodel.New(network, cost)
	if err != nil {
		return nil, err
	}
	n := meta.Procs
	d := &derivation{
		s: s, n: n, cost: cost, base: base, target: target,
		tree:  meta.Barrier == "tree",
		radix: meta.BarrierRadix,

		delta:    make([]sim.Duration, n),
		pendOpen: make([]bool, n),
		pendAt:   make([]sim.Duration, n),
		pendBase: make([]sim.Duration, n),
		pendTarg: make([]sim.Duration, n),

		arriveEp:  make([]int, n),
		releaseEp: make([]int, n),
		eps:       make(map[int]*centralEpisode),

		pendLock: make([]int32, n),
		reqMgr:   make([]int, n),
		reqBase:  make([]sim.Duration, n),
		reqTarg:  make([]sim.Duration, n),
		lastRelB: make(map[int]sim.Duration),
		lastRelT: make(map[int]sim.Duration),
	}
	for i := range d.pendLock {
		d.pendLock[i] = -1
	}
	if d.tree {
		if d.radix < 2 {
			return nil, fmt.Errorf("trace: tree-barrier capture without radix in run meta")
		}
		d.nkids = make([]int, n)
		for i := 0; i < n; i++ {
			lo, hi := d.radix*i+1, d.radix*i+1+d.radix
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			d.nkids[i] = hi - lo
		}
		d.cmplBase = make([]sim.Duration, n)
		d.cmplTarg = make([]sim.Duration, n)
		d.grantBase = make([]sim.Duration, n)
		d.grantTg = make([]sim.Duration, n)
	}
	if err := d.walk(); err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		d.flush(p)
	}

	// Base-model integrity: the walk's base half must have rebuilt the
	// recorded run bit-identically, or the stream is not derivable.
	if d.msgs != s.msgs || d.bytes != s.bytes || d.baseQ != s.queue {
		return nil, fmt.Errorf("trace: base replay mismatch (msgs %d/%d bytes %d/%d queue %d/%d)",
			d.msgs, s.msgs, d.bytes, s.bytes, d.baseQ, s.queue)
	}
	var baseTime, targTime sim.Duration
	for p := 0; p < n; p++ {
		baseTime = sim.MaxClock(baseTime, s.clocks[p])
		targTime = sim.MaxClock(targTime, s.clocks[p]+d.delta[p])
	}
	if baseTime != s.time {
		return nil, fmt.Errorf("trace: final clocks disagree with recorded time (%d vs %d)", baseTime, s.time)
	}
	return &Derived{
		Network:  target.Name(),
		Time:     targTime,
		Totals:   Totals{Msgs: d.msgs, Bytes: d.bytes, Queue: d.targQ},
		Gate:     d.gate,
		BaseGate: d.baseGate,
	}, nil
}

// checkEndpoints rejects a message event that names a processor the run
// does not have. Captures are outside input, and the contended models
// keep one port per processor id they are shown: a corrupted id must be
// an error before it is priced.
func checkEndpoints(src, dst, procs int) error {
	if src < 0 || src >= procs || dst < 0 || dst >= procs {
		return fmt.Errorf("message %d->%d names a processor outside a run of %d", src, dst, procs)
	}
	return nil
}

// checkProcs rejects a capture in which a message event, or a
// lifecycle event Derive indexes by, names a processor the run does
// not have.
func (s *stream) checkProcs() error {
	n := s.meta.Procs
	for _, ev := range s.wins {
		for i, op := range ev.op {
			switch op {
			case opLeg, opControl, opExchange:
				if err := checkEndpoints(int(ev.a[i]), int(ev.b[i]), n); err != nil {
					return fmt.Errorf("trace: %w", err)
				}
			case opBarrierEnter, opLockRequest, opLockRelease:
				if p := int(ev.a[i]); p < 0 || p >= n {
					return fmt.Errorf("trace: lifecycle event names processor %d outside a run of %d", p, n)
				}
			}
		}
	}
	return nil
}

// flush applies a processor's pending exchange-group offset.
func (d *derivation) flush(p int) {
	if d.pendOpen[p] {
		d.delta[p] += d.pendTarg[p] - d.pendBase[p]
		d.pendOpen[p] = false
	}
}

func (d *derivation) walk() error {
	for _, ev := range d.s.wins {
		if err := d.walkCols(ev); err != nil {
			return err
		}
	}
	return nil
}

func (d *derivation) walkCols(ev cols) error {
	for i := range ev.op {
		src, dst := int(ev.a[i]), int(ev.b[i])
		nb, rb := int(ev.nb[i]), int(ev.rb[i])
		at := sim.Duration(ev.at[i])
		switch ev.op[i] {
		case opExchange:
			if !d.pendOpen[src] || d.pendAt[src] != at {
				d.flush(src)
				d.pendOpen[src] = true
				d.pendAt[src] = at
				d.pendBase[src], d.pendTarg[src] = 0, 0
			}
			bt := d.base.Exchange(src, dst, nb, rb, at)
			tt := d.target.Exchange(src, dst, nb, rb, at+d.delta[src])
			if c := bt.Total(); c > d.pendBase[src] {
				d.pendBase[src] = c
			}
			if c := tt.Total(); c > d.pendTarg[src] {
				d.pendTarg[src] = c
			}
			d.msgs += 2
			d.bytes += int64(nb) + int64(rb)
			d.baseQ += bt.Request.Queue + bt.Reply.Queue
			d.targQ += tt.Request.Queue + tt.Reply.Queue

		case opLeg:
			if err := d.leg(simnet.MsgKind(ev.kind[i]), src, dst, nb, at); err != nil {
				return err
			}

		case opControl:
			if err := d.control(simnet.MsgKind(ev.kind[i]), src, dst, nb, at); err != nil {
				return err
			}

		case opBarrierEnter:
			if d.tree {
				p := src
				d.flush(p)
				d.cmplBase[p] = sim.MaxClock(d.cmplBase[p], at)
				d.cmplTarg[p] = sim.MaxClock(d.cmplTarg[p], at+d.delta[p])
			}

		case opLockRequest:
			d.pendLock[src] = ev.b[i]

		case opLockRelease:
			p, l := src, dst
			d.flush(p)
			d.lastRelB[l] = at
			d.lastRelT[l] = at + d.delta[p]
		}
	}
	return nil
}

// priceLeg prices one leg through both models and accumulates totals.
func (d *derivation) priceLeg(src, dst, bytes int, baseAt, targAt sim.Duration, ctl bool) (bt, tt netmodel.Timing) {
	wire := bytes
	if ctl {
		// Control legs are priced payload-free; their wire bytes still
		// count toward the byte totals (simnet.SendControl).
		bytes = 0
	}
	bt = d.base.Leg(src, dst, bytes, baseAt)
	tt = d.target.Leg(src, dst, bytes, targAt)
	d.msgs++
	d.bytes += int64(wire)
	d.baseQ += bt.Queue
	d.targQ += tt.Queue
	return bt, tt
}

func (d *derivation) leg(kind simnet.MsgKind, src, dst, bytes int, at sim.Duration) error {
	switch kind {
	case simnet.BarrierArrive:
		if d.tree {
			return d.treeArrive(src, dst, bytes, at)
		}
		return d.centralArrive(src, dst, bytes, at)
	case simnet.BarrierRelease:
		if d.tree {
			return d.treeWave(src, dst, bytes, at)
		}
		return d.centralRelease(src, dst, bytes, at)
	case simnet.LockGrant:
		return d.lockGrant(src, dst, bytes, at)
	case simnet.HomeFlush:
		// Fire-and-forget release flush: the sender prices at its clock
		// and advances by the leg's cost.
		d.flush(src)
		bt, tt := d.priceLeg(src, dst, bytes, at, at+d.delta[src], false)
		d.delta[src] += tt.Total - bt.Total
		return nil
	default:
		return fmt.Errorf("trace: cannot derive leg kind %v", kind)
	}
}

func (d *derivation) control(kind simnet.MsgKind, src, dst, bytes int, at sim.Duration) error {
	switch kind {
	case simnet.LockRequest:
		d.flush(src)
		bt, tt := d.priceLeg(src, dst, bytes, at, at+d.delta[src], true)
		// The requester blocks: the request's arrival feeds the grant
		// time, the requester's own clock resumes at the grant.
		d.reqMgr[src] = dst
		d.reqBase[src] = at + bt.Total
		d.reqTarg[src] = at + d.delta[src] + tt.Total
		return nil
	case simnet.LockForward:
		// The manager forwards to the holder at the request's arrival;
		// find the requester whose pending arrival matches. It asked
		// this manager and has not been forwarded yet, and it is not
		// the holder: a requester whose request found the lock free
		// holds it until its grant is priced, and may share the
		// arrival.
		req := -1
		for p := 0; p < d.n; p++ {
			if d.pendLock[p] >= 0 && d.reqMgr[p] == src && p != dst && d.reqBase[p] == at {
				if req >= 0 {
					return fmt.Errorf("trace: ambiguous lock forward at %d", at)
				}
				req = p
			}
		}
		if req < 0 {
			return fmt.Errorf("trace: lock forward at %d matches no pending request", at)
		}
		bt, tt := d.priceLeg(src, dst, bytes, at, d.reqTarg[req], true)
		d.reqMgr[req] = -1
		d.reqBase[req] += bt.Total
		d.reqTarg[req] += tt.Total
		return nil
	default:
		return fmt.Errorf("trace: cannot derive control kind %v", kind)
	}
}

func (d *derivation) lockGrant(src, dst, bytes int, at sim.Duration) error {
	p := dst
	l := int(d.pendLock[p])
	if l < 0 {
		return fmt.Errorf("trace: lock grant to %d without a pending request", p)
	}
	grantB := sim.Meet(d.reqBase[p], d.lastRelB[l]) + d.cost.LockService
	grantT := sim.Meet(d.reqTarg[p], d.lastRelT[l]) + d.cost.LockService
	if grantB != at {
		return fmt.Errorf("trace: reconstructed lock grant %d != recorded %d", grantB, at)
	}
	bt, tt := d.priceLeg(src, p, bytes, at, grantT, false)
	d.flush(p)
	d.delta[p] = (grantT + tt.Total) - (at + bt.Total)
	d.pendLock[p] = -1
	return nil
}

func (d *derivation) centralArrive(src, dst, bytes int, at sim.Duration) error {
	p := src
	d.flush(p)
	bt, tt := d.priceLeg(p, dst, bytes, at, at+d.delta[p], false)
	d.arriveEp[p]++
	ep := d.arriveEp[p]
	st := d.eps[ep]
	if st == nil {
		st = &centralEpisode{}
		d.eps[ep] = st
	}
	st.basePost = sim.MaxClock(st.basePost, at+bt.Total)
	st.targPost = sim.MaxClock(st.targPost, at+d.delta[p]+tt.Total)
	st.arrived++
	if st.arrived == d.n {
		fixed := d.cost.BarrierManager + sim.Duration(d.n)*d.cost.RequestService
		st.baseRel = st.basePost + fixed
		st.targRel = st.targPost + fixed
		// The adaptive policy's contention gate is evaluated exactly
		// here: after the last arrival is priced, before any release.
		d.baseGate = append(d.baseGate, d.cost.Contended(d.baseQ, d.msgs))
		d.gate = append(d.gate, d.cost.Contended(d.targQ, d.msgs))
	}
	return nil
}

func (d *derivation) centralRelease(src, dst, bytes int, at sim.Duration) error {
	p := dst
	d.releaseEp[p]++
	st := d.eps[d.releaseEp[p]]
	if st == nil || st.arrived != d.n {
		return fmt.Errorf("trace: barrier release for incomplete episode %d", d.releaseEp[p])
	}
	if st.baseRel != at {
		return fmt.Errorf("trace: reconstructed barrier release %d != recorded %d", st.baseRel, at)
	}
	bt, tt := d.priceLeg(src, p, bytes, at, st.targRel, false)
	d.flush(p)
	d.delta[p] = (st.targRel + tt.Total) - (at + bt.Total)
	st.released++
	if st.released == d.n {
		delete(d.eps, d.releaseEp[p])
	}
	return nil
}

func (d *derivation) treeArrive(src, dst, bytes int, at sim.Duration) error {
	node := src
	if node == 0 {
		return fmt.Errorf("trace: tree arrive from the root")
	}
	doneB := d.cmplBase[node] + sim.Duration(d.nkids[node])*d.cost.RequestService
	doneT := d.cmplTarg[node] + sim.Duration(d.nkids[node])*d.cost.RequestService
	if doneB != at {
		return fmt.Errorf("trace: reconstructed tree arrival %d != recorded %d", doneB, at)
	}
	bt, tt := d.priceLeg(node, dst, bytes, at, doneT, false)
	d.cmplBase[dst] = sim.MaxClock(d.cmplBase[dst], doneB+bt.Total)
	d.cmplTarg[dst] = sim.MaxClock(d.cmplTarg[dst], doneT+tt.Total)
	return nil
}

func (d *derivation) treeWave(src, dst, bytes int, at sim.Duration) error {
	node, c := src, dst
	if c == 0 {
		return fmt.Errorf("trace: tree wave edge %d->%d ends at the root", node, c)
	}
	if d.waveLegs == 0 {
		// First wave edge: the root's subtree just completed; rebuild
		// the episode's release origin.
		rootB := d.cmplBase[0] + sim.Duration(d.nkids[0])*d.cost.RequestService
		rootT := d.cmplTarg[0] + sim.Duration(d.nkids[0])*d.cost.RequestService
		d.grantBase[0] = rootB + d.cost.BarrierManager
		d.grantTg[0] = rootT + d.cost.BarrierManager
		d.flush(0)
		d.delta[0] = d.grantTg[0] - d.grantBase[0]
	}
	if d.grantBase[node] != at {
		return fmt.Errorf("trace: reconstructed tree wave %d != recorded %d", d.grantBase[node], at)
	}
	bt, tt := d.priceLeg(node, c, bytes, at, d.grantTg[node], false)
	d.grantBase[c] = d.grantBase[node] + bt.Total
	d.grantTg[c] = d.grantTg[node] + tt.Total
	d.flush(c)
	d.delta[c] = d.grantTg[c] - d.grantBase[c]
	d.waveLegs++
	if d.waveLegs == d.n-1 {
		d.waveLegs = 0
		for i := 0; i < d.n; i++ {
			d.cmplBase[i], d.cmplTarg[i] = 0, 0
		}
	}
	return nil
}
