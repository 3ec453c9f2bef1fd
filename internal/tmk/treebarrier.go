package tmk

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// treeBarrier is a combining-tree barrier: the processors form an
// implicit radix-r tree (parent(i) = (i-1)/r, rooted at processor 0 —
// the barrier manager), arrivals combine upward one priced message per
// tree edge, and releases fan downward the same way. Against the
// centralized fabric's n simultaneous manager arrivals this trades
// per-episode messages 2n → 2(n-1) and, far more importantly on the
// contended network models, turns the manager's n-message pile-up into
// log_r(n)-depth waves of at most r messages per receiver.
//
// The consistency contents are identical to the centralized barrier —
// same merged epoch, same write-notice delta — but the release payload
// differs by construction: the centralized manager sends each departer
// exactly the notices that departer is missing, while a tree release
// wave carries the episode's full notice union down every edge (an
// interior node cannot know its subtree's individual gaps). Timing and
// byte totals therefore differ from "central" by design; the
// post-barrier state (vector times, invalidation sets) does not, which
// is what the equivalence tests pin.
type treeBarrier struct {
	sys   *System
	n     int
	radix int

	mu      sync.Mutex
	episode int
	tk      *vc.Tracked

	pending []int32        // outstanding arrivals at node i: self + children
	nkids   []int32        // child count of node i
	cmpl    []sim.Duration // latest arrival seen by node i's subtree
	grantAt []sim.Duration // release-wave delivery time per node
	waiters []chan barrierGrant
}

func newTreeBarrier(s *System) *treeBarrier {
	n := s.cfg.Procs
	r := s.cfg.BarrierRadix
	tb := &treeBarrier{
		sys:     s,
		n:       n,
		radix:   r,
		tk:      vc.NewTracked(n),
		pending: make([]int32, n),
		nkids:   make([]int32, n),
		cmpl:    make([]sim.Duration, n),
		grantAt: make([]sim.Duration, n),
		waiters: make([]chan barrierGrant, n),
	}
	for i := 0; i < n; i++ {
		lo := r*i + 1
		hi := lo + r
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		tb.nkids[i] = int32(hi - lo)
		tb.pending[i] = 1 + tb.nkids[i]
	}
	return tb
}

func (tb *treeBarrier) sync(p *Proc) (barrierGrant, bool) {
	ch := p.barrierCh
	tb.mu.Lock()
	tb.waiters[p.id] = ch
	if p.sys.sparseMode() {
		tb.tk.MergeStamp(p.tk.Snapshot(&p.arena))
	} else {
		tb.tk.MergeTime(p.vt)
	}
	// Walk the combining path: this processor's arrival is a local event
	// at its own node; each node whose subtree just completed forwards
	// one combined arrival message to its parent, priced on the wire and
	// carried by this goroutine (the last arriver does the forwarding,
	// as in software combining trees).
	node := p.id
	at := p.clock.Now()
	for {
		if at > tb.cmpl[node] {
			tb.cmpl[node] = at
		}
		tb.pending[node]--
		if tb.pending[node] > 0 {
			break
		}
		// Node's subtree is complete: service its children's arrivals,
		// then combine upward (or finish the episode at the root).
		done := tb.cmpl[node] + sim.Duration(tb.nkids[node])*tb.sys.cost.RequestService
		if node == 0 {
			tb.finish(done)
			break
		}
		parent := (node - 1) / tb.radix
		t := tb.sys.net.SendLeg(simnet.BarrierArrive, node, parent, 16, done)
		at = done + t.Total
		node = parent
	}
	tb.mu.Unlock()
	return <-ch, true
}

// finish completes an episode at the root: run the shared episode
// duties (epoch, episode delta, adaptive policy, rehoming, episode log),
// price the downward release wave hop by hop, and deliver every grant.
// Runs under tb.mu on the goroutine whose arrival completed the root's
// subtree.
func (tb *treeBarrier) finish(done sim.Duration) {
	s := tb.sys
	tb.episode++
	g := s.finishEpisode(tb.tk, tb.episode)

	// Downward wave: parents release before children (node indices are
	// topologically ordered), one priced message per tree edge. Every
	// hop carries the episode's whole notice union: the intervals
	// published between the previous epoch and this one.
	tb.grantAt[0] = done + s.cost.BarrierManager
	for node := 0; node < tb.n; node++ {
		lo := tb.radix*node + 1
		if lo >= tb.n {
			continue
		}
		hi := lo + tb.radix
		if hi > tb.n {
			hi = tb.n
		}
		for c := lo; c < hi; c++ {
			t := s.net.SendLeg(simnet.BarrierRelease, node, c, 8+g.noticeBytes, tb.grantAt[node])
			tb.grantAt[c] = tb.grantAt[node] + t.Total
		}
	}
	s.gate.wakeAll(func(i int) sim.Duration { return tb.grantAt[i] })
	for i := 0; i < tb.n; i++ {
		g.release = tb.grantAt[i]
		tb.waiters[i] <- g
	}
	// Reset the combining state for the next episode (finishEpisode
	// already rebased tk onto the new epoch).
	for i := 0; i < tb.n; i++ {
		tb.pending[i] = 1 + tb.nkids[i]
		tb.cmpl[i] = 0
	}
}
