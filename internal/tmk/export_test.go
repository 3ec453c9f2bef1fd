package tmk

import (
	"fmt"

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
