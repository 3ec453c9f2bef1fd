package tmk

import (
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/simnet"
)

// A placement rule decides the home processor of every consistency
// unit for the home units' flushes and fetches: the initial assignment
// at build, and how a home may move at barriers. The home table and
// the rule's per-unit state are System-owned (homeTable, homeState) and
// written only while every processor is blocked in a barrier, so the
// static home protocol and the adaptive hybrid share one rehoming path
// (rehomeUnit).
type placementRule struct {
	// block starts homes in contiguous bands — nprocs nearly equal
	// ranges of units, matching the banded data decompositions most of
	// the paper's applications use — instead of round-robin
	// (u % nprocs, the paper-era assignment).
	block bool
	move  homeMove
}

// homeMove is how a placement may move homes after build.
type homeMove uint8

const (
	// stay never moves a home: barriers pay nothing for placement.
	stay homeMove = iota
	// bindFirst binds each unit, once, to the causally first processor
	// that wrote it, at the first barrier after the unit's first write
	// (reads do not publish intervals, so "first toucher" means first
	// writer; the §5.4 applications write what they own). The binding
	// is free: it is an assignment, not a migration — the real systems
	// it models bind the home at the first fault, before any home state
	// exists (the provisional home's flushes of the resolving phase are
	// the one-phase distortion DESIGN.md §9 accounts for).
	bindFirst
	// chaseDominant is JIAJIA-style home migration: a unit whose phase
	// writes were dominated by the same processor — not its current
	// home — for migrateHysteresis consecutive evidence phases moves
	// there, the move priced as a wire transfer of the unit's home state
	// (the new home pulls the versioned image from the old home). Homes
	// chase the writers, so sustained single-writer phases make that
	// writer's flushes local, while alternating-writer units (stencil
	// boundaries) never show stable dominance and stay put. The home
	// lives where the writes are, so the adaptive protocol's
	// homeless→home switch moves it to the last writer instead of
	// pulling the image there (DESIGN.md §8, §9).
	chaseDominant
)

// DefaultPlacement is the paper-era static assignment: round-robin.
const DefaultPlacement = "rr"

// placements is the placement axis.
var placements = registry.New("placement", "placement", DefaultPlacement, map[string]placementRule{
	"rr":         {},
	"block":      {block: true},
	"firsttouch": {move: bindFirst},
	"migrate":    {move: chaseDominant},
})

// PlacementNames returns the placement names, sorted.
func PlacementNames() []string { return placements.Names() }

// migrateHysteresis is the number of consecutive evidence phases the
// same non-home processor must dominate a unit's writes before the
// unit's home migrates there. One-phase dominance is noise — an
// initialization sweep, a boundary exchange — and each move costs a
// home-state transfer on the wire, so migration demands the same
// stability of evidence the adaptive protocol's switch rule does
// (switchHysteresis).
const migrateHysteresis = 2

// unitHomeState is a moving rule's state for one unit: first-touch has
// bound it, and (migrate) the last writer to dominate its phase writes
// without homing it, for streak evidence phases in a row.
type unitHomeState struct {
	bound   bool
	streak  uint8
	lastDom int32
}

// placeHomes fills the home table with the rule's initial homes and
// clears a moving rule's state, in storage a reset System keeps (the
// table is made with the System).
func (s *System) placeHomes() {
	for u := range s.homeTable {
		if s.place.block {
			s.homeTable[u] = int32(u * s.cfg.Procs / s.numUnits)
		} else {
			s.homeTable[u] = int32(u % s.cfg.Procs)
		}
	}
	if s.homeState == nil && s.place.move != stay {
		s.homeState = make([]unitHomeState, s.numUnits)
	}
	clear(s.homeState)
}

// --- the System-side rehoming step ----------------------------------------

// rehomeMove is one scheduled home-state transfer: the new home pulls
// the unit's versioned image (bytes on the wire) from the processor
// holding it, a HomeMigrate from the old home — or, for an adaptive
// ownership handoff, a HomeHandoff from the unit's last writer.
type rehomeMove struct {
	kind  simnet.MsgKind
	from  int // the processor holding the state
	bytes int // the state's wire size
}

// settleMoves pays for the home-state moves the barrier that just
// released p scheduled for it, in order: one request/reply exchange of
// the move's kind each, from p (the new home) to the holder. The state
// itself stays in the shared versioned log (data moves through shared
// structures, timing through clock charges — DESIGN.md §2); a move whose
// holder is p itself is a local copy, free of messages.
func (p *Proc) settleMoves() {
	for _, m := range p.moves {
		if m.from == p.id {
			continue
		}
		xt := p.sys.net.SendExchange(m.kind, m.kind, p.id, m.from, 16, m.bytes, p.clock.Now())
		p.clock.Advance(xt.Total())
	}
	p.moves = p.moves[:0]
}

// unitStateBytes is the wire size of a unit's home state: one full-page
// image per page, mem.FullPageWireBytes whatever the page holds. A home
// migration and an adaptive handoff both carry it.
func (s *System) unitStateBytes() int { return s.cfg.UnitPages * mem.FullPageWireBytes }

// rehomeUnit applies the placement rule to unit u, written during the
// episode that just ended by ivs (its run of the episode index), after
// the adaptive policy decided u (switched: it flipped u's home bit at
// this barrier). Called by decideUnits, inside the gate, only when
// units may be home and the rule may move homes.
func (s *System) rehomeUnit(u int, ivs []*lrc.Interval, switched bool) {
	cur := s.homeOf(u)
	switch s.place.move {
	case bindFirst:
		// A binding is free, valid for homeless units (it decides where
		// a later switch homes them), and must see the unit's true
		// first-write evidence even when the adaptive policy switched
		// the unit at this same barrier.
		if st := &s.homeState[u]; !st.bound {
			st.bound = true
			if first := ivs[0].ID.Proc; first != cur {
				s.moveHome(u, first, false)
			}
		}
	case chaseDominant:
		// Migration chases live home state, so it considers only units
		// that are home and whose bit the adaptive policy did not just
		// flip: a freshly claimed unit was placed at its last writer by
		// the switch itself, a freshly relinquished (or still-homeless)
		// one has no home state worth chasing — and skipping it keeps
		// the dominance streaks from being consumed on decisions that
		// could not apply.
		if !s.unitHome[u] || switched {
			return
		}
		st, dom := &s.homeState[u], dominantWriter(ivs, s.procScratch)
		if dom == cur {
			st.streak = 0
			return
		}
		if int(st.lastDom) != dom {
			st.lastDom, st.streak = int32(dom), 1
		} else if st.streak < migrateHysteresis {
			st.streak++
		}
		if st.streak < migrateHysteresis {
			return
		}
		st.streak = 0
		s.moveHome(u, dom, true)
	}
}

// moveHome is every home change after construction: unit u's home
// becomes to, in the home table (race-free: every processor is blocked
// in the barrier). A transfer schedules the new home's pull of the
// unit's state from the old home, priced by its size after the release
// (settleMoves); otherwise the move is a free binding.
func (s *System) moveHome(u, to int, transfer bool) {
	from, bytes := s.homeOf(u), 0
	if transfer {
		bytes = s.unitStateBytes()
		s.nRehomeBytes += bytes
		s.procs[to].moves = append(s.procs[to].moves, rehomeMove{kind: simnet.HomeMigrate, from: from, bytes: bytes})
	}
	if s.trc != nil {
		s.trc.Rehome(u, from, to, bytes, transfer)
	}
	s.homeTable[u] = int32(to)
	s.nRehomes++
}

// dominantWriter returns the processor that closed the most of ivs, ties
// going to the lowest processor id. count is zeroed scratch with one
// entry per processor, and is left zeroed.
func dominantWriter(ivs []*lrc.Interval, count []int32) int {
	best, bestN := -1, int32(0)
	for _, iv := range ivs {
		q := iv.ID.Proc
		count[q]++
		if n := count[q]; n > bestN || n == bestN && q < best {
			best, bestN = q, n
		}
	}
	for _, iv := range ivs {
		count[iv.ID.Proc] = 0
	}
	return best
}
