package tmk

import (
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/simnet"
)

// Placement decides the home processor of every consistency unit for
// the home units' flushes and fetches: the initial assignment at
// construction, and an optional rehoming decision at each barrier. The
// home table itself is System-owned per-unit state (homeTable, like the
// units' home bits), so the static home protocol and the adaptive
// hybrid share one rehoming path; a Placement only supplies the policy.
//
// Placement instances serve one System build (Reset constructs fresh
// ones) and are consulted only while every processor is blocked in a
// barrier, so they need no internal synchronization.
type Placement interface {
	// InitialHome returns unit u's home at construction.
	InitialHome(u int) int

	// Rehome is consulted at a barrier for every unit written during
	// the phase that just ended: given the unit, its current home, and
	// the phase's writer evidence, it returns the unit's home for the
	// next phase and whether the move transfers home state over the
	// wire (a priced exchange from the old home) or is a free binding
	// (first-touch resolution, which assigns a home that never held
	// state worth moving). Returning home == cur means no move.
	Rehome(u, cur int, ev PhaseWriters) (home int, transfer bool)

	// MayRehome reports whether Rehome can ever move a home. A policy
	// returning false ("rr", "block") costs nothing at barriers: the
	// barrier's decision pass never consults it, and unless the adaptive
	// policy is installed no episode runs are built for it — the
	// pre-placement-layer engine's exact behavior.
	MayRehome() bool

	// Mobile reports whether the policy may move homes after
	// construction. The adaptive protocol uses it to cheapen its
	// homeless→home handoff: under a mobile placement the home migrates
	// to the unit's last writer — where the image already lives — so no
	// image travels; under a static placement the (fixed) home must
	// pull the image from the last writer (DESIGN.md §8, §9).
	Mobile() bool
}

// PhaseWriters is one unit's writer evidence for the barrier phase
// that just ended, read from the unit's run of the episode index (the
// episode delta's intervals that wrote it, in causal order) —
// deterministic regardless of goroutine scheduling.
type PhaseWriters struct {
	// First is the causally first processor to write the unit this
	// phase.
	First int
	// Dominant is the processor that closed the most intervals on the
	// unit this phase (ties resolved toward the lowest processor id).
	Dominant int
}

// DefaultPlacement is the paper-era static assignment: round-robin.
const DefaultPlacement = "rr"

// placements is the placement axis: each name's factory builds a policy
// instance for one System build.
var placements = registry.New("placement", "placement", DefaultPlacement, map[string]func(nprocs, nunits int) Placement{
	"rr": func(nprocs, nunits int) Placement {
		return rrPlacement{nprocs: nprocs}
	},
	"block": func(nprocs, nunits int) Placement {
		return blockPlacement{nprocs: nprocs, nunits: nunits}
	},
	"firsttouch": func(nprocs, nunits int) Placement {
		return &firstTouchPlacement{nprocs: nprocs, resolved: make([]bool, nunits)}
	},
	"migrate": func(nprocs, nunits int) Placement {
		return &migratePlacement{
			nprocs:  nprocs,
			lastDom: make([]int32, nunits),
			streak:  make([]uint8, nunits),
		}
	},
})

// PlacementNames returns the placement names, sorted.
func PlacementNames() []string { return placements.Names() }

// rrPlacement is the paper-era default: unit u lives on processor
// u % nprocs, forever. Bit-identical to the pre-placement engine.
type rrPlacement struct{ nprocs int }

func (p rrPlacement) InitialHome(u int) int { return u % p.nprocs }
func (rrPlacement) Rehome(u, cur int, ev PhaseWriters) (int, bool) {
	return cur, false
}
func (rrPlacement) MayRehome() bool { return false }
func (rrPlacement) Mobile() bool    { return false }

// blockPlacement assigns contiguous unit ranges to processors —
// nprocs nearly equal bands, matching the banded data decompositions
// most of the paper's applications use.
type blockPlacement struct{ nprocs, nunits int }

func (p blockPlacement) InitialHome(u int) int {
	return u * p.nprocs / p.nunits
}
func (blockPlacement) Rehome(u, cur int, ev PhaseWriters) (int, bool) {
	return cur, false
}
func (blockPlacement) MayRehome() bool { return false }
func (blockPlacement) Mobile() bool    { return false }

// firstTouchPlacement starts from the round-robin assignment and binds
// each unit, once, to the causally first processor that wrote it —
// resolved deterministically at the first barrier after the unit's
// first write (reads do not publish intervals, so "first toucher"
// means first writer; the §5.4 applications write what they own). The
// binding is free: it is an assignment, not a migration — the real
// systems it models bind the home at the first fault, before any home
// state exists (the provisional home's flushes of the resolving phase
// are the one-phase distortion DESIGN.md §9 accounts for).
type firstTouchPlacement struct {
	nprocs   int
	resolved []bool
}

func (p *firstTouchPlacement) InitialHome(u int) int { return u % p.nprocs }
func (p *firstTouchPlacement) Rehome(u, cur int, ev PhaseWriters) (int, bool) {
	if p.resolved[u] {
		return cur, false
	}
	p.resolved[u] = true
	return ev.First, false
}
func (*firstTouchPlacement) MayRehome() bool { return true }
func (*firstTouchPlacement) Mobile() bool    { return false }

// migrateHysteresis is the number of consecutive evidence phases the
// same non-home processor must dominate a unit's writes before the
// unit's home migrates there. One-phase dominance is noise — an
// initialization sweep, a boundary exchange — and each move costs a
// home-state transfer on the wire, so migration demands the same
// stability of evidence the adaptive protocol's switch rule does
// (switchHysteresis).
const migrateHysteresis = 2

// migratePlacement is JIAJIA-style home migration: homes start
// round-robin (the paper-era assignment), and a unit whose phase
// writes were dominated by the same processor — not its current home —
// for migrateHysteresis consecutive evidence phases moves there, the
// move priced as a wire transfer of the unit's home state (the new
// home pulls the versioned image from the old home). Homes chase the
// writers, so sustained single-writer phases make that writer's
// flushes local, while alternating-writer units (stencil boundaries)
// never show stable dominance and stay put.
type migratePlacement struct {
	nprocs  int
	lastDom []int32
	streak  []uint8
}

func (p *migratePlacement) InitialHome(u int) int { return u % p.nprocs }
func (p *migratePlacement) Rehome(u, cur int, ev PhaseWriters) (int, bool) {
	if ev.Dominant == cur {
		p.streak[u] = 0
		return cur, false
	}
	if int(p.lastDom[u]) != ev.Dominant {
		p.lastDom[u] = int32(ev.Dominant)
		p.streak[u] = 1
	} else if p.streak[u] < migrateHysteresis {
		p.streak[u]++
	}
	if p.streak[u] < migrateHysteresis {
		return cur, false
	}
	p.streak[u] = 0
	return ev.Dominant, true
}
func (*migratePlacement) MayRehome() bool { return true }
func (*migratePlacement) Mobile() bool    { return true }

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

// rehomeUnit applies the placement policy to unit u, written during the
// episode that just ended by ivs (its run of the episode index), after
// the adaptive policy decided u (switched: it flipped u's home bit at
// this barrier). Called by decideUnits, inside the gate, only when
// units may be home and the policy may move homes.
func (s *System) rehomeUnit(u int, ivs []*lrc.Interval, switched bool) {
	home := s.unitHome[u]
	// A mobile policy chases live home state, so it is consulted only
	// for units that are home and whose bit the adaptive policy did not
	// just flip: a freshly claimed unit was placed at its last writer by
	// the switch itself, a freshly relinquished (or
	// still-homeless) one has no home state worth chasing — and skipping
	// the consult keeps the policy's dominance streaks from being
	// consumed on decisions that could not apply. Binding policies
	// (first-touch) are always consulted: a binding is free, valid for
	// homeless-owned units (it decides where a later switch homes them),
	// and must see the unit's true first-write evidence even when the
	// adaptive policy switched the unit at this same barrier.
	if s.placement.Mobile() && (!home || switched) {
		return
	}
	cur := s.homeOf(u)
	ev := PhaseWriters{First: ivs[0].ID.Proc, Dominant: dominantWriter(ivs, s.procScratch)}
	nh, transfer := s.placement.Rehome(u, cur, ev)
	if nh == cur || nh < 0 || nh >= s.cfg.Procs {
		return
	}
	if transfer && !home {
		// No live home state to move (a non-mobile policy asked for a
		// transfer on a homeless-owned unit): nothing to price, nothing
		// to decide.
		return
	}
	s.moveHome(u, nh, transfer)
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
	for _, iv := range ivs {
		count[iv.ID.Proc]++
	}
	best, bestN := -1, int32(0)
	for _, iv := range ivs {
		if q, n := iv.ID.Proc, count[iv.ID.Proc]; n > bestN || n == bestN && q < best {
			best, bestN = q, n
		}
	}
	for _, iv := range ivs {
		count[iv.ID.Proc] = 0
	}
	return best
}
