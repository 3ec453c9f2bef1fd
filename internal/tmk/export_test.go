package tmk

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/mem"
)

// SetBarrierHook installs fn to run on every processor's goroutine after
// it consumed a barrier grant: whether it took the held-unit walk, and
// how many entries the walk it took had (held units, or the episode's
// notices).
func (s *System) SetBarrierHook(fn func(p *Proc, heldWalk bool, visited int)) {
	s.barrierHook = fn
}

// CheckHeldList verifies processor p's held-list invariant: every unit
// that is not Invalid is listed exactly once, no unit is listed twice,
// and the marks say exactly what the list says. Call it on the
// processor's goroutine, or while no Run is in progress.
func (s *System) CheckHeldList(p int) error {
	pr := s.procs[p]
	listed := make([]int, s.numUnits)
	for _, u := range pr.held {
		listed[u]++
	}
	for u, n := range listed {
		switch {
		case n > 1:
			return fmt.Errorf("proc %d: unit %d is on the held list %d times", p, u, n)
		case n == 0 && pr.pt.State(u) != mem.Invalid:
			return fmt.Errorf("proc %d: unit %d is %v and not on the held list", p, u, pr.pt.State(u))
		case pr.heldMark[u] != (n == 1):
			return fmt.Errorf("proc %d: unit %d is listed %d times and marked %v", p, u, n, pr.heldMark[u])
		}
	}
	return nil
}

// WriteSetCheck is what CheckWriteSets saw over the runs since it was
// installed.
type WriteSetCheck struct {
	mu    sync.Mutex
	diffs int
	err   error
}

// Diffs returns how many page diffs were compared, and the first
// mismatch.
func (c *WriteSetCheck) Diffs() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diffs, c.err
}

// CheckWriteSets runs the twin-then-compare write detection beside the
// write sets in every later Run of s: each write fault also twins its
// unit's pages in full, and each interval close requires EncodeDiffInto
// of every page against its twin to equal the page's write-set diff, run
// for run. Call it before Run.
func (s *System) CheckWriteSets() *WriteSetCheck {
	c := &WriteSetCheck{}
	scr := make([]mem.DiffScratch, s.cfg.Procs) // one per processor goroutine
	s.twinHook = func(p *Proc, page int, twin mem.Twin, d mem.Diff) {
		want := mem.EncodeDiffInto(&scr[p.id], twin, p.rep.Page(page))
		same := reflect.DeepEqual(d.Runs(), want.Runs())
		scr[p.id].Rewind()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.diffs++
		if !same && c.err == nil {
			c.err = fmt.Errorf("processor %d page %d: write-set diff %v, twin diff %v", p.id, page, d.Runs(), want.Runs())
		}
	}
	return c
}

// Promoted returns how many pages of the last Run had every stretch of
// their write set saved, so that writes to them took the fast path.
func (s *System) Promoted() int {
	n := 0
	for _, p := range s.procs {
		n += p.nPromoted
	}
	return n
}

// NewSystemMaxGroup is NewSystem with the §4 group bound at maxPages
// pages instead of aggregate.DefaultMaxPages, for ablating the bound.
func NewSystemMaxGroup(cfg Config, maxPages int) (*System, error) {
	return newSystem(cfg, tuning{groupPages: maxPages})
}
