package tmk

import (
	"sync"

	"repro/internal/sim"
)

// gate puts a run's lock operations in virtual-time order (DESIGN §2a):
// a Lock or Unlock by processor p at virtual time t takes effect only
// when (t, p) is the least over the processors that are neither done nor
// blocked in a synchronization wait. A running processor counts at the
// clock it last published, which is a lower bound of its clock; clocks
// only advance, so no processor can later reach a lock operation at a
// smaller time than one the gate has let through. Which goroutine the
// host happens to run first then decides nothing: the same program,
// protocol and cost model grant every lock in the same order on any
// host.
//
// Every lock's state is read and written only inside the gate (between
// enter and leave), so the gate's mutex is the locks' mutex too.
type gate struct {
	mu      sync.Mutex
	cond    sync.Cond
	at      []sim.Duration // each processor's published clock
	blocked []bool         // waiting for a lock grant or a barrier release
	done    []bool         // its body has returned
}

// reset readies the gate for a run of n processors: every processor
// runnable at time zero.
func (g *gate) reset(n int) {
	g.cond.L = &g.mu
	if len(g.at) != n {
		g.at, g.blocked, g.done = make([]sim.Duration, n), make([]bool, n), make([]bool, n)
		return
	}
	clear(g.at)
	clear(g.blocked)
	clear(g.done)
}

// enter publishes t as processor id's clock and waits until (t, id) is
// the least (time, id) over the runnable processors. It returns holding
// the gate; leave releases it.
func (g *gate) enter(id int, t sim.Duration) {
	g.mu.Lock()
	if t > g.at[id] {
		// A waiter may have been waiting for this processor's clock.
		g.at[id] = t
		g.cond.Broadcast()
	}
	for !g.least(id) {
		g.cond.Wait()
	}
}

// least reports whether processor id goes first: no other runnable
// processor has published a smaller (time, id).
func (g *gate) least(id int) bool {
	t := g.at[id]
	for q, at := range g.at {
		if q != id && !g.done[q] && !g.blocked[q] && (at < t || at == t && q < id) {
			return false
		}
	}
	return true
}

func (g *gate) leave() { g.mu.Unlock() }

// block takes processor id out of the order until a wake: it waits for
// a lock grant or a barrier release, and does nothing meanwhile that the
// order could wait for. The caller holds the gate.
func (g *gate) block(id int) {
	g.blocked[id] = true
	g.cond.Broadcast()
}

// wake makes processor id runnable again at time t, the time its grant
// releases it, before the grant is delivered. The caller holds the gate.
func (g *gate) wake(id int, t sim.Duration) {
	g.blocked[id] = false
	g.at[id] = t
}

// wakeAll ends a barrier episode in the gate: every processor is
// runnable again at its release time, before any grant is delivered.
func (g *gate) wakeAll(release func(id int) sim.Duration) {
	g.mu.Lock()
	for id := range g.at {
		g.wake(id, release(id))
	}
	g.mu.Unlock()
}

// finish takes processor id out of the order for the rest of the run.
func (g *gate) finish(id int) {
	g.mu.Lock()
	g.done[id] = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
