package tmk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lrc"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// The placement policies the placement rules replaced, kept as the rules'
// oracle: one type per policy behind a four-method interface, each
// owning its per-unit state, and the rehoming step that consulted them.

type refPlacement interface {
	InitialHome(u int) int
	Rehome(u, cur int, ev refPhaseWriters) (home int, transfer bool)
	MayRehome() bool
	Mobile() bool
}

// refPhaseWriters is a unit's writer evidence for one barrier phase: the
// causally first writer and the writer that closed the most intervals.
type refPhaseWriters struct{ First, Dominant int }

var refPlacements = map[string]func(nprocs, nunits int) refPlacement{
	"rr":    func(nprocs, nunits int) refPlacement { return refRR{nprocs} },
	"block": func(nprocs, nunits int) refPlacement { return refBlock{nprocs, nunits} },
	"firsttouch": func(nprocs, nunits int) refPlacement {
		return &refFirstTouch{nprocs: nprocs, resolved: make([]bool, nunits)}
	},
	"migrate": func(nprocs, nunits int) refPlacement {
		return &refMigrate{nprocs: nprocs, lastDom: make([]int32, nunits), streak: make([]uint8, nunits)}
	},
}

type refRR struct{ nprocs int }

func (p refRR) InitialHome(u int) int                           { return u % p.nprocs }
func (refRR) Rehome(u, cur int, ev refPhaseWriters) (int, bool) { return cur, false }
func (refRR) MayRehome() bool                                   { return false }
func (refRR) Mobile() bool                                      { return false }

type refBlock struct{ nprocs, nunits int }

func (p refBlock) InitialHome(u int) int                           { return u * p.nprocs / p.nunits }
func (refBlock) Rehome(u, cur int, ev refPhaseWriters) (int, bool) { return cur, false }
func (refBlock) MayRehome() bool                                   { return false }
func (refBlock) Mobile() bool                                      { return false }

type refFirstTouch struct {
	nprocs   int
	resolved []bool
}

func (p *refFirstTouch) InitialHome(u int) int { return u % p.nprocs }
func (p *refFirstTouch) Rehome(u, cur int, ev refPhaseWriters) (int, bool) {
	if p.resolved[u] {
		return cur, false
	}
	p.resolved[u] = true
	return ev.First, false
}
func (*refFirstTouch) MayRehome() bool { return true }
func (*refFirstTouch) Mobile() bool    { return false }

// refMigrateHysteresis is the policy's own constant, so that the oracle
// does not follow a change to the rule's.
const refMigrateHysteresis = 2

type refMigrate struct {
	nprocs  int
	lastDom []int32
	streak  []uint8
}

func (p *refMigrate) InitialHome(u int) int { return u % p.nprocs }
func (p *refMigrate) Rehome(u, cur int, ev refPhaseWriters) (int, bool) {
	if ev.Dominant == cur {
		p.streak[u] = 0
		return cur, false
	}
	if int(p.lastDom[u]) != ev.Dominant {
		p.lastDom[u] = int32(ev.Dominant)
		p.streak[u] = 1
	} else if p.streak[u] < refMigrateHysteresis {
		p.streak[u]++
	}
	if p.streak[u] < refMigrateHysteresis {
		return cur, false
	}
	p.streak[u] = 0
	return ev.Dominant, true
}
func (*refMigrate) MayRehome() bool { return true }
func (*refMigrate) Mobile() bool    { return true }

// refRehomer is the rehoming step over a policy: its home table, and the
// moves and bytes it counted and the transfers it scheduled per new home.
type refRehomer struct {
	pl           refPlacement
	procs        int
	homes        []int
	moves, bytes int
	transfers    [][]rehomeMove
}

func (r *refRehomer) rehome(u int, ivs []*lrc.Interval, home, switched bool, unitBytes int) {
	if r.pl.Mobile() && (!home || switched) {
		return
	}
	cur := r.homes[u]
	count := map[int]int{}
	dom := -1
	for _, iv := range ivs {
		count[iv.ID.Proc]++
	}
	for q, n := range count {
		if dom < 0 || n > count[dom] || n == count[dom] && q < dom {
			dom = q
		}
	}
	nh, transfer := r.pl.Rehome(u, cur, refPhaseWriters{First: ivs[0].ID.Proc, Dominant: dom})
	if nh == cur || nh < 0 || nh >= r.procs || transfer && !home {
		return
	}
	if transfer {
		r.bytes += unitBytes
		r.transfers[nh] = append(r.transfers[nh], rehomeMove{kind: simnet.HomeMigrate, from: cur, bytes: unitBytes})
	}
	r.homes[u] = nh
	r.moves++
}

// TestPlacementRulesMatchPolicies feeds random writer evidence — each
// written unit's run of intervals, its home bit and whether the adaptive
// policy just switched it — through the placement rules and through the
// policies they replaced, on 2 to 64 processors, and requires the same
// initial homes, the same homes after every barrier, and the same move
// counts, transfer bytes and scheduled transfers. Each System runs the
// evidence twice, with a Reset between, which must start the rules'
// state afresh.
func TestPlacementRulesMatchPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := PlacementNames()
	moved, transferred := 0, 0
	for trial := 0; trial < 120; trial++ {
		procs, nunits := 2+rng.Intn(63), 1+rng.Intn(24)
		name, protocol := names[trial%len(names)], []string{"home", "adaptive"}[rng.Intn(2)]
		sys, err := NewSystem(Config{Procs: procs, SegmentBytes: nunits * 4096, Protocol: protocol, Placement: name})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			where := fmt.Sprintf("%s/%s procs=%d units=%d run %d", name, protocol, procs, nunits, run)
			if run > 0 {
				sys.Reset()
			}
			ref := &refRehomer{pl: refPlacements[name](procs, nunits), procs: procs, transfers: make([][]rehomeMove, procs)}
			for u := 0; u < nunits; u++ {
				ref.homes = append(ref.homes, ref.pl.InitialHome(u))
			}
			if sys.rehome != ref.pl.MayRehome() {
				t.Fatalf("%s: rehome %v, policy MayRehome %v", where, sys.rehome, ref.pl.MayRehome())
			}
			// Each unit has a favourite writer, who writes half its
			// intervals and changes now and then: dominance repeats.
			fav := make([]int, nunits)
			for ep := 0; ep < 16; ep++ {
				for u := 0; u < nunits; u++ {
					if rng.Intn(4) == 0 {
						fav[u] = rng.Intn(procs)
					}
					if rng.Intn(3) == 0 {
						continue // not written this phase
					}
					var ivs []*lrc.Interval
					for k := 1 + rng.Intn(5); k > 0; k-- {
						w := fav[u]
						if rng.Intn(2) == 0 {
							w = rng.Intn(procs)
						}
						ivs = append(ivs, lrc.MakeInterval(vc.IntervalID{Proc: w, Seq: int32(ep + 1)}, vc.DenseStamp(vc.New(procs)), []int{u}, nil))
					}
					home, switched := rng.Intn(2) == 0, rng.Intn(4) == 0
					sys.unitHome[u] = home
					if sys.rehome {
						sys.rehomeUnit(u, ivs, switched)
					}
					ref.rehome(u, ivs, home, switched, sys.unitStateBytes())
				}
				for u, want := range ref.homes {
					if got := sys.homeOf(u); got != want {
						t.Fatalf("%s: after barrier %d unit %d homed at %d, policy %d", where, ep, u, got, want)
					}
				}
			}
			if sys.nRehomes != ref.moves || sys.nRehomeBytes != ref.bytes {
				t.Fatalf("%s: %d moves, %d bytes; policy %d, %d", where, sys.nRehomes, sys.nRehomeBytes, ref.moves, ref.bytes)
			}
			for q, p := range sys.procs {
				if !slices.Equal(p.moves, ref.transfers[q]) {
					t.Fatalf("%s: processor %d pulls %v, policy %v", where, q, p.moves, ref.transfers[q])
				}
				p.moves = p.moves[:0]
			}
			moved += ref.moves
			transferred += ref.bytes
		}
	}
	if moved == 0 || transferred == 0 {
		t.Errorf("the evidence never moved a home (%d moves) or transferred one (%d bytes)", moved, transferred)
	}
}
