package tmk_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/mem"
	"repro/internal/tmk"
	"repro/internal/vc"
)

// walkLog records, per barrier episode and processor, which walk the
// processor took and over how many entries. Processors write their own
// slots from the barrier hook; the test reads after Run.
type walkLog struct {
	mu       sync.Mutex
	episodes [][]walkEntry // [barrier index][proc]
	seen     []int         // barriers consumed so far, per proc
}

type walkEntry struct {
	held    bool
	visited int
}

func newWalkLog(procs int) *walkLog { return &walkLog{seen: make([]int, procs)} }

func (l *walkLog) hook(p *tmk.Proc, held bool, visited int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.seen[p.ID()]
	l.seen[p.ID()]++
	for len(l.episodes) <= b {
		l.episodes = append(l.episodes, make([]walkEntry, len(l.seen)))
	}
	l.episodes[b][p.ID()] = walkEntry{held, visited}
}

// lockChain is a generated program that reaches the barrier's
// lock-learned fallback whatever the host does. In round r processor k
// takes its own lock before a barrier; after the barrier it writes its
// pages and releases the lock, and processor k+1 — the lock's only other
// requester, so there is no grant order for a scheduler to decide —
// acquires it, reads k's first page and only then writes its own. Every
// processor but 0 therefore arrives at the next barrier knowing a prefix
// of the episode (the intervals of 0..k-1) that it did not write.
//
// Processor k's lock is managed by k+1: the forward leg of k+1's request
// is then priced whether or not k has released yet, and the grant time is
// the same meet of request and release either way.
type lockChain struct {
	procs, pages, rounds int
	base                 mem.Addr
	sums                 []int64
}

func (c *lockChain) lockOf(r, k int) int { return r*c.procs + (k+1)%c.procs }

func (c *lockChain) word(k, page int) mem.Addr {
	return c.base + mem.Addr((k*c.pages+page)*mem.PageSize)
}

func (c *lockChain) body(p *tmk.Proc) {
	k := p.ID()
	for r := 0; r < c.rounds; r++ {
		p.Lock(c.lockOf(r, k))
		p.Barrier()
		if k > 0 {
			p.Lock(c.lockOf(r, k-1))
			c.sums[k] += p.ReadI64(c.word(k-1, 0))
		}
		for pg := 0; pg < c.pages; pg++ {
			p.WriteI64(c.word(k, pg), int64(1000*r+10*k+pg+1))
		}
		p.Unlock(c.lockOf(r, k))
		if k > 0 {
			p.Unlock(c.lockOf(r, k-1))
		}
	}
	p.Barrier()
}

func (c *lockChain) check() error {
	for k := 1; k < c.procs; k++ {
		var want int64
		for r := 0; r < c.rounds; r++ {
			want += int64(1000*r + 10*(k-1) + 1)
		}
		if c.sums[k] != want {
			return fmt.Errorf("processor %d read %d over the rounds, want %d", k, c.sums[k], want)
		}
	}
	return nil
}

func runLockChain(t *testing.T, scale, barrier string) (*tmk.Result, [][]mem.PageState, *walkLog) {
	t.Helper()
	c := &lockChain{procs: 8, pages: 2, rounds: 4}
	sys, err := tmk.NewSystem(tmk.Config{
		Procs: c.procs, SegmentBytes: (c.procs*c.pages + 3) * mem.PageSize,
		Locks: c.rounds * c.procs, Scale: scale, Barrier: barrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	c.base = sys.AllocPages(c.procs * c.pages)
	c.sums = make([]int64, c.procs)
	log := newWalkLog(c.procs)
	sys.SetBarrierHook(func(p *tmk.Proc, held bool, visited int) {
		if err := sys.CheckHeldList(p.ID()); err != nil {
			t.Error(err)
		}
		log.hook(p, held, visited)
	})
	res := sys.Run(c.body)
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	var states [][]mem.PageState
	for p := 0; p < c.procs; p++ {
		states = append(states, sys.PageStates(p))
	}
	return res, states, log
}

// TestHeldListFallbackOnLockLearnedPrefix runs the lock-chain program on
// both clock representations and both fabrics: every processor that
// learned a prefix of the episode through its lock must take the
// shared-delta walk, and both engines must take the same walks and end
// in the same state.
func TestHeldListFallbackOnLockLearnedPrefix(t *testing.T) {
	for _, barrier := range []string{"central", "tree"} {
		t.Run(barrier, func(t *testing.T) {
			dense, denseStates, denseLog := runLockChain(t, tmk.ScaleDense, barrier)
			sparse, sparseStates, log := runLockChain(t, tmk.ScaleSparse, barrier)
			if sparse.Messages != dense.Messages || sparse.Bytes != dense.Bytes || sparse.Time != dense.Time ||
				sparse.Faults != dense.Faults || sparse.Intervals != dense.Intervals {
				t.Errorf("sparse %d msgs/%d B/%v/%d faults/%d intervals, dense %d/%d/%v/%d/%d",
					sparse.Messages, sparse.Bytes, sparse.Time, sparse.Faults, sparse.Intervals,
					dense.Messages, dense.Bytes, dense.Time, dense.Faults, dense.Intervals)
			}
			if !reflect.DeepEqual(sparseStates, denseStates) {
				t.Errorf("final page tables differ:\n sparse %v\n dense  %v", sparseStates, denseStates)
			}
			if !reflect.DeepEqual(log.episodes, denseLog.episodes) {
				t.Errorf("walk logs differ:\n sparse %v\n dense  %v", log.episodes, denseLog.episodes)
			}
			// Barrier b > 0 closes the episode in which round b-1's chain ran.
			if len(log.episodes) != 5 {
				t.Fatalf("%d barrier episodes logged, want 5", len(log.episodes))
			}
			for b := 1; b < len(log.episodes); b++ {
				for k, w := range log.episodes[b] {
					if k > 0 && w.held {
						t.Errorf("barrier %d: processor %d knew a prefix of the episode and took the held-unit walk", b+1, k)
					}
				}
				// Processor 0 learns nothing through a lock; at barrier 2 it
				// still holds the whole segment, more units than the
				// episode has notices.
				if w := log.episodes[b][0]; b > 1 && !w.held {
					t.Errorf("barrier %d: processor 0 did not take the held-unit walk (%d entries)", b+1, w.visited)
				}
			}
		})
	}
}

// TestHeldListWalkOnStorm pins what the held-unit walk is for. On Storm
// every processor takes it at every write-phase barrier once its list
// has been pruned, under either clock representation, and what it
// visits there — its own pages, its neighbour's first, the one it is
// about to lose, and the never-written tail of the rounded segment —
// does not grow with the processor count.
func TestHeldListWalkOnStorm(t *testing.T) {
	for _, procs := range []int{64, 128} {
		t.Run(fmt.Sprintf("p%d", procs), func(t *testing.T) {
			for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
				t.Run(scale, func(t *testing.T) {
					e, _ := apps.Lookup("Storm", "small")
					w := e.Make(procs)
					sys, err := apps.NewSystem(w, tmk.Config{Procs: procs, Barrier: "tree", Scale: scale})
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Release()
					log := newWalkLog(procs)
					sys.SetBarrierHook(log.hook)
					sys.Run(w.Body)
					if err := w.Check(); err != nil {
						t.Fatal(err)
					}
					const pagesPerProc = 2 // Storm/small
					tail := sys.NumUnits() - procs*pagesPerProc
					bound := pagesPerProc + 2 + tail
					// Barriers alternate write phase, read phase. The first
					// write-phase barrier walks the notices (everything is
					// still held), the second prunes what that invalidated.
					for b := 4; b < len(log.episodes); b += 2 {
						for k, w := range log.episodes[b] {
							if !w.held || w.visited > bound {
								t.Fatalf("barrier %d, processor %d: held walk %v over %d entries, want a held walk over at most %d",
									b+1, k, w.held, w.visited, bound)
							}
						}
					}
				})
			}
		})
	}
}

// walkRun is what one cell left behind for the walk comparison.
type walkRun struct {
	res       *tmk.Result
	log       []vc.Time
	states    [][]mem.PageState
	heldWalks int
}

func runWalkCell(t *testing.T, app string, procs int, cfg tmk.Config, fullWalk bool) walkRun {
	t.Helper()
	e, _ := apps.Lookup(app, "small")
	w := e.Make(procs)
	cfg.Procs, cfg.Collect = procs, true
	sys, err := apps.NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	if fullWalk {
		sys.ForceFullBarrierWalk()
	}
	var held atomic.Int64
	sys.SetBarrierHook(func(_ *tmk.Proc, h bool, _ int) {
		if h {
			held.Add(1)
		}
	})
	out := walkRun{res: sys.Run(w.Body)}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	for _, vt := range sys.BarrierLog() {
		out.log = append(out.log, vt.Clone())
	}
	for p := 0; p < procs; p++ {
		out.states = append(out.states, sys.PageStates(p))
	}
	out.heldWalks = int(held.Load())
	return out
}

// TestHeldWalkMatchesFullWalk runs every registered application's small
// dataset under every protocol, unit size and barrier fabric at 8
// processors, and Storm also at 64, once with the held-unit walk allowed
// and once with every barrier grant forced onto the episode's full
// delta: the results (messages, bytes, every clock, events, §5.3
// stats), the barrier logs and every processor's final page table must
// be equal. It runs the sparse clocks; TestScaleModesEquivalent holds
// the dense ones to them over the same cells.
func TestHeldWalkMatchesFullWalk(t *testing.T) {
	units := []struct {
		name    string
		pages   int
		dynamic bool
	}{{"unit1", 1, false}, {"unit4", 4, false}, {"dynamic", 1, true}}
	heldWalks := 0
	for _, app := range apps.Apps() {
		sizes := []int{8}
		if app == "Storm" {
			sizes = []int{8, 64}
		}
		for _, protocol := range []string{"homeless", "home", "adaptive"} {
			for _, procs := range sizes {
				for _, u := range units {
					for _, barrier := range []string{"central", "tree"} {
						name := fmt.Sprintf("%s/%s/p%d/%s/%s", app, protocol, procs, u.name, barrier)
						t.Run(name, func(t *testing.T) {
							cfg := tmk.Config{UnitPages: u.pages, Dynamic: u.dynamic, Protocol: protocol, Barrier: barrier}
							held := runWalkCell(t, app, procs, cfg, false)
							full := runWalkCell(t, app, procs, cfg, true)
							if full.heldWalks != 0 {
								t.Fatalf("%d grants took the held-unit walk with the full walk forced", full.heldWalks)
							}
							heldWalks += held.heldWalks
							if !reflect.DeepEqual(held.res, full.res) {
								t.Errorf("results differ:\n held %+v\n full %+v", held.res, full.res)
							}
							if !reflect.DeepEqual(held.log, full.log) {
								t.Errorf("barrier logs differ")
							}
							for p := range held.states {
								if !reflect.DeepEqual(held.states[p], full.states[p]) {
									t.Fatalf("processor %d ends with a different page table:\n held %v\n full %v",
										p, held.states[p], full.states[p])
								}
							}
						})
					}
				}
			}
		}
	}
	if heldWalks == 0 {
		t.Fatal("no barrier grant took the held-unit walk")
	}
}

// TestHeldListInvariant checks the list against the page table at every
// barrier of a run, after the run, and after Reset, for barrier and lock
// programs under static and dynamic units on both engines.
func TestHeldListInvariant(t *testing.T) {
	cells := []struct {
		app string
		cfg tmk.Config
	}{
		{"Jacobi", tmk.Config{UnitPages: 1}},
		{"Jacobi", tmk.Config{UnitPages: 1, Scale: tmk.ScaleDense}},
		{"MGS", tmk.Config{UnitPages: 4, Protocol: "home"}},
		{"Shallow", tmk.Config{UnitPages: 1, Dynamic: true, Protocol: "adaptive"}},
		{"Water", tmk.Config{UnitPages: 1}},
		{"Storm", tmk.Config{UnitPages: 1, Barrier: "tree"}},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%s%s/u%d/dyn=%v", c.app, c.cfg.Scale, c.cfg.Protocol, c.cfg.UnitPages, c.cfg.Dynamic), func(t *testing.T) {
			e, ok := apps.Lookup(c.app, "small")
			if !ok {
				t.Fatalf("%s/small not registered", c.app)
			}
			const procs = 8
			w := e.Make(procs)
			cfg := c.cfg
			cfg.Procs = procs
			sys, err := apps.NewSystem(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Release()
			var barriers atomic.Int64
			sys.SetBarrierHook(func(p *tmk.Proc, _ bool, _ int) {
				barriers.Add(1)
				if err := sys.CheckHeldList(p.ID()); err != nil {
					t.Error(err)
				}
			})
			checkAll := func(when string) {
				t.Helper()
				for p := 0; p < procs; p++ {
					if err := sys.CheckHeldList(p); err != nil {
						t.Errorf("%s: %v", when, err)
					}
				}
			}
			checkAll("after NewSystem")
			for trial := 0; trial < 2; trial++ {
				sys.Run(w.Body)
				if err := w.Check(); err != nil {
					t.Fatal(err)
				}
				checkAll("after Run")
				sys.Reset()
				checkAll("after Reset")
			}
			if barriers.Load() == 0 {
				t.Fatal("the barrier hook never ran")
			}
		})
	}
}

// TestHeldListFlatHeapOverTrials pins that the episode index, the shared
// delta, the held lists and the interval slabs are reused from trial to
// trial: forty more trials of Storm/small at 32 processors must not
// leave the heap measurably above where ten left it.
func TestHeldListFlatHeapOverTrials(t *testing.T) {
	e, _ := apps.Lookup("Storm", "small")
	w := e.Make(32)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 32, Barrier: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	heapAfter := func(trials int) uint64 {
		for i := 0; i < trials; i++ {
			sys.Run(w.Body)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heapAfter(10)
	end := heapAfter(40)
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	// One trial publishes 512 intervals (90 KB of structs alone).
	const slack = 128 << 10
	if end > base+slack {
		t.Fatalf("heap in use grew from %d to %d bytes over 40 trials", base, end)
	}
}
