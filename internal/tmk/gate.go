package tmk

import (
	"runtime"
	"sync"

	"repro/internal/sim"
)

// gate owns every wait of a run (DESIGN §2a). It puts the lock
// operations in virtual-time order: a Lock or Unlock by processor p at
// virtual time t takes effect only when (t, p) is the least over the
// processors that are neither done nor blocked in a synchronization
// wait. A running processor counts at the clock it last published, which
// is a lower bound of its clock; clocks only advance, so no processor can
// later reach a lock operation at a smaller time than one the gate has
// let through. Which goroutine the host happens to run first then
// decides nothing: the same program, protocol and cost model grant every
// lock in the same order on any host.
//
// Each processor waits on its own wake channel, for its turn (enter) or
// for a lock grant or barrier release (park). A token goes only to a
// processor recorded as waiting, and the record is cleared in the same
// critical section, so no token is lost or left over, and a send, made
// holding the gate, never finds the one-token buffer full. Only the
// processor that becomes least is woken. Every lock's state, and a barrier
// episode's, is read and written only inside the gate, so the gate's
// mutex is their mutex too.
type gate struct {
	mu    sync.Mutex
	at    []sim.Duration // each processor's published clock, or its release time
	state []procState
	wake  []chan bool // one token per wait; true aborts the run
	nturn int         // processors waiting for their turn
	nrun  int         // processors neither blocked nor done
}

// procState is where a processor is in the gate's order.
type procState uint8

const (
	running procState = iota
	turn              // parked in enter until it is least
	blocked           // waiting for a lock grant or a barrier release
	done              // its body has returned
)

// reset readies the gate for a run of n processors: every processor
// runnable at time zero.
func (g *gate) reset(n int) {
	if len(g.at) != n {
		g.at, g.state, g.wake = make([]sim.Duration, n), make([]procState, n), make([]chan bool, n)
		for id := range g.wake {
			g.wake[id] = make(chan bool, 1)
		}
	}
	clear(g.at)
	clear(g.state)
	g.nturn, g.nrun = 0, n
}

// enter publishes t as processor id's clock and waits until (t, id) is
// the least (time, id) over the runnable processors. It returns holding
// the gate; leave releases it.
func (g *gate) enter(id int, t sim.Duration) {
	g.mu.Lock()
	if t > g.at[id] {
		g.at[id] = t
		g.next()
	}
	for g.least() != id {
		g.state[id] = turn
		g.nturn++
		g.mu.Unlock()
		<-g.wake[id]
		g.mu.Lock()
	}
}

// least returns the runnable processor with the least (time, id), or -1
// when none is runnable.
func (g *gate) least() int {
	m := -1
	for q, at := range g.at {
		if g.state[q] <= turn && (m < 0 || at < g.at[m]) {
			m = q
		}
	}
	return m
}

// next wakes the least runnable processor if it waits for its turn. It
// runs wherever the least can change: a publish, a block, a finish (a
// release adds a runnable processor, which makes no other one least).
// The caller holds the gate.
func (g *gate) next() {
	if g.nturn == 0 {
		return
	}
	if m := g.least(); m >= 0 && g.state[m] == turn {
		g.state[m] = running
		g.nturn--
		g.wake[m] <- false
	}
}

func (g *gate) leave() { g.mu.Unlock() }

// block takes processor id out of the order until its release: it waits
// for a lock grant or a barrier release, and does nothing meanwhile that
// the order could wait for. The caller holds the gate and parks next.
func (g *gate) block(id int) {
	g.state[id] = blocked
	g.nrun--
	g.next()
}

// release makes blocked processor id runnable again at time t, the time
// its grant releases it, and wakes it. The caller holds the gate and has
// written the grant where id reads it.
func (g *gate) release(id int, t sim.Duration) {
	g.state[id] = running
	g.nrun++
	g.at[id] = t
	g.wake[id] <- false
}

// park leaves the gate and waits for processor id's release, returning
// its release time. The caller holds the gate and has blocked id.
func (g *gate) park(id int) sim.Duration {
	g.abortIfStuck()
	g.mu.Unlock()
	if <-g.wake[id] {
		runtime.Goexit()
	}
	return g.at[id]
}

// finish takes processor id out of the order for the rest of the run.
func (g *gate) finish(id int) {
	g.mu.Lock()
	g.state[id] = done
	g.nrun--
	g.next()
	g.abortIfStuck()
	g.mu.Unlock()
}

// abortIfStuck aborts the run when no processor is runnable: a blocked
// processor waits for a runnable one (a lock's holder, a barrier's
// missing arrival), so nothing would release it. Every blocked processor
// is released with an abort and leaves its goroutine through
// runtime.Goexit, still blocked: Run reports them. The caller holds the
// gate.
func (g *gate) abortIfStuck() {
	if g.nrun > 0 {
		return
	}
	for id, st := range g.state {
		if st == blocked {
			g.wake[id] <- true
		}
	}
}
