package tmk

import (
	"repro/internal/sim"
	"repro/internal/simnet"
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

	pending []int32        // outstanding arrivals at node i: self + children
	nkids   []int32        // child count of node i
	cmpl    []sim.Duration // latest arrival seen by node i's subtree
	grantAt []sim.Duration // release-wave delivery time per node
}

func newTreeBarrier(s *System) *treeBarrier {
	n := s.cfg.Procs
	r := s.cfg.BarrierRadix
	tb := &treeBarrier{
		sys:     s,
		n:       n,
		radix:   r,
		pending: make([]int32, n),
		nkids:   make([]int32, n),
		cmpl:    make([]sim.Duration, n),
		grantAt: make([]sim.Duration, n),
	}
	for i := range n {
		tb.nkids[i] = int32(min(r*i+1+r, n) - min(r*i+1, n))
		tb.pending[i] = 1 + tb.nkids[i]
	}
	return tb
}

// arrive walks the combining path: this processor's arrival is a local
// event at its own node; each node whose subtree just completed forwards
// one combined arrival message to its parent, priced on the wire and
// carried by this goroutine (the last arriver does the forwarding, as in
// software combining trees). A completed node is ready for the next
// episode at once.
func (tb *treeBarrier) arrive(p *Proc) (sim.Duration, bool) {
	node := p.id
	at := p.clock.Now()
	for {
		tb.cmpl[node] = max(tb.cmpl[node], at)
		tb.pending[node]--
		if tb.pending[node] > 0 {
			return 0, false
		}
		// Node's subtree is complete: service its children's arrivals,
		// then combine upward (or complete the episode at the root).
		done := tb.cmpl[node] + sim.Duration(tb.nkids[node])*tb.sys.cost.RequestService
		tb.pending[node], tb.cmpl[node] = 1+tb.nkids[node], 0
		if node == 0 {
			return done, true
		}
		parent := (node - 1) / tb.radix
		t := tb.sys.net.SendLeg(simnet.BarrierArrive, node, parent, 16, done)
		at = done + t.Total
		node = parent
	}
}

// release prices the downward wave hop by hop: parents release before
// children (node indices are topologically ordered), one priced message
// per tree edge. Every hop carries the episode's whole notice union: the
// intervals published between the previous epoch and this one.
func (tb *treeBarrier) release(done sim.Duration, g *barrierGrant) {
	s := tb.sys
	tb.grantAt[0] = done + s.cost.BarrierManager
	for node := 0; node < tb.n; node++ {
		for c := tb.radix*node + 1; c < tb.radix*node+1+int(tb.nkids[node]); c++ {
			t := s.net.SendLeg(simnet.BarrierRelease, node, c, 8+g.noticeBytes, tb.grantAt[node])
			tb.grantAt[c] = tb.grantAt[node] + t.Total
		}
		s.gate.release(node, tb.grantAt[node])
	}
}

// depart prices nothing: the release wave already reached p.
func (tb *treeBarrier) depart(*Proc, sim.Duration, int) {}
