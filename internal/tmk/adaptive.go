package tmk

import (
	"repro/internal/lrc"
	"repro/internal/simnet"
	"repro/internal/vc"
)

// switchHysteresis is the number of consecutive barrier phases with
// contrary writer evidence required before the adaptive protocol
// switches a unit.
const switchHysteresis = 2

// adaptivePolicy is the hybrid protocol the per-unit home bit exists
// for: every unit starts under the paper's homeless protocol, and at
// each barrier the unit's writer signature for the phase that just
// ended — the per-unit concurrent-writer statistic behind the §3
// false-sharing signature (see concurrentWriters) — decides its
// protocol for the next phase. Heavily false-shared units (concurrent
// writers numbering at least half the processors, without lock churn —
// see the evidence filters in decide) migrate to home-based LRC,
// whose one-exchange-per-miss beats one-exchange-per-writer there;
// other units migrate back to homeless, whose small on-demand diffs
// beat whole-unit images and per-release flushes there. A unit only
// switches after switchHysteresis consecutive phases of contrary
// evidence, so oscillating signatures don't thrash, and phases with no
// writers carry no evidence at all.
//
// decide runs in the barrier's decision pass (System.decideUnits), in
// the last arriver's goroutine, inside the gate, while every other
// processor is blocked awaiting its barrier release, so flipping a
// unit's home bit is race-free: the gate's release publishes the new
// bits to every processor (see DESIGN.md §8).
type adaptivePolicy struct {
	// streak[u] counts consecutive evidence phases contradicting unit
	// u's current protocol; switches[u] counts u's switch events.
	// churned[u] pins a unit homeless for the rest of the run once any
	// phase closed more intervals on it than one per processor: under
	// home every closed interval is a flush, so a unit that mixes
	// lock-churn phases with quiet concurrent phases loses more during
	// the churn than home-based misses save during the quiet.
	streak   []int
	switches []int
	churned  []bool
	total    int
}

func newAdaptivePolicy(nunits int) *adaptivePolicy {
	return &adaptivePolicy{
		streak:   make([]int, nunits),
		switches: make([]int, nunits),
		churned:  make([]bool, nunits),
	}
}

// contended reports the network-aware half of the §8 switch rule: the
// interconnect's measured mean queue delay per message so far has
// reached the cost model's gate (sim.CostModel.Contended). O(1) — both
// totals are simnet running counters.
func (s *System) contended() bool {
	msgs, _ := s.net.Counts()
	if s.tune.gate != nil {
		return s.tune.gate(s.net.QueueTotal(), int64(msgs))
	}
	return s.cost.Contended(s.net.QueueTotal(), int64(msgs))
}

// decide evaluates unit u's writer signature over the barrier episode
// that just ended — ivs, the unit's run of the episode index: the
// intervals that wrote it, in causal order — and flips the unit's home
// bit once its evidence streak reaches the hysteresis threshold.
// contended is the network's verdict at this barrier, and merged the
// barrier's merged time. It reports whether it switched u.
func (a *adaptivePolicy) decide(s *System, u int, ivs []*lrc.Interval, contended bool, merged vc.Time, episode int) bool {
	// Home-based ownership pays off for steady barrier-phase false
	// sharing: many concurrent writers, each closing about one
	// interval per phase (≤ one per processor). Two filters keep the
	// evidence honest. Units churned by fine-grain lock synchronization
	// close many more intervals per phase, and under home every closed
	// interval is a flush to the home — traffic homeless never pays —
	// so one churn phase pins the unit homeless for good, even when its
	// writers overlap. And the concurrent-writer count (the unit's §3
	// signature bar) must reach half the processors: a home miss
	// replaces k diff exchanges with one whole-image exchange, saving
	// k-1 message overheads against a roughly fixed byte penalty, so
	// small k loses even on contended interconnects. The
	// network-aware evidence (§8): homeless→home migration saves
	// messages at a byte premium, which only pays while the
	// interconnect is measurably contended; on a quiet network the gate
	// holds every unit homeless — and sends home-owned units back.
	if len(ivs) > s.cfg.Procs {
		a.churned[u] = true
	}
	favorsHome := contended && !a.churned[u] && 2*concurrentWriters(ivs, s.procScratch) >= s.cfg.Procs
	curHome := s.unitHome[u]
	if favorsHome == curHome {
		a.streak[u] = 0
		return false
	}
	a.streak[u]++
	if a.streak[u] < s.tune.hysteresis {
		return false
	}
	a.streak[u] = 0
	a.switches[u]++
	a.total++
	if curHome {
		// home → homeless: every interval keeps its diffs in the store,
		// so future homeless fetches are already served; relinquishing
		// is free.
		s.unitHome[u] = false
		if s.trc != nil {
			s.trc.ProtocolSwitch(u, "home", "homeless", episode)
		}
		return true
	}
	if s.trc != nil {
		s.trc.ProtocolSwitch(u, "homeless", "home", episode)
	}
	// homeless → home: the store already holds the unit's whole diff
	// history, which is the home's versioned log, and a home fetch
	// serves each post-barrier fetcher the writes it misses from it
	// (fetch), so nothing is installed. Under a placement that chases
	// the writers (migrate) the home itself moves to the unit's causally
	// last writer — the image already lives there, so nothing travels;
	// under any other placement the unit's home must pull the unit's
	// image from the last writer, priced by its size after the release
	// (settleMoves).
	if c := s.homeCheck; c != nil {
		c.handoff(u, merged)
	}
	last := ivs[len(ivs)-1].ID.Proc
	if s.place.move == chaseDominant {
		if s.homeOf(u) != last {
			s.moveHome(u, last, false)
		}
	} else {
		to := s.procs[s.homeOf(u)]
		to.moves = append(to.moves, rehomeMove{kind: simnet.HomeHandoff, from: last, bytes: s.unitStateBytes()})
	}
	s.unitHome[u] = true
	return true
}

// concurrentWriters returns the number of distinct processors whose
// intervals among ivs are causally concurrent with another processor's
// interval — the unit's bar in the paper's §3 false-sharing signature
// for the phase. Zero or one means the unit was not falsely shared:
// distinct writers whose intervals are totally ordered (migratory data
// handed around under a lock) do not count, because for those homeless
// diffs stay cheaper than whole-unit home images. mark is zeroed
// scratch with one entry per processor, and is left zeroed.
func concurrentWriters(ivs []*lrc.Interval, mark []int32) int {
	for i, a := range ivs {
		for _, b := range ivs[i+1:] {
			if a.ID.Proc != b.ID.Proc && a.TS.Concurrent(b.TS) {
				mark[a.ID.Proc], mark[b.ID.Proc] = 1, 1
			}
		}
	}
	n := 0
	for _, iv := range ivs {
		n += int(mark[iv.ID.Proc])
		mark[iv.ID.Proc] = 0
	}
	return n
}

// report fills a Result's adaptive accounting after the run.
func (a *adaptivePolicy) report(res *Result, unitHome []bool) {
	res.ProtocolSwitches = a.total
	if a.total > 0 {
		res.UnitSwitches = make(map[int]int)
		for u, n := range a.switches {
			if n > 0 {
				res.UnitSwitches[u] = n
				res.SwitchedUnits++
			}
		}
	}
	for _, home := range unitHome {
		if home {
			res.HomeUnits++
		}
	}
}
