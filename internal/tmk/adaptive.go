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

// setupAdaptive installs the adaptive configuration: both engines, every
// unit starting homeless, and the policy that re-points units.
func setupAdaptive(s *System) {
	hb := newHomeProtocol(s)
	s.install(&homelessProtocol{}, hb)
	s.policy = newAdaptivePolicy(s, hb)
}

// Dispatch-table indices of the adaptive configuration's two engines
// (setupAdaptive's install order).
const (
	homelessIdx = 0
	homeIdx     = 1
)

// adaptivePolicy is the hybrid protocol the per-unit dispatch exists
// for: every unit starts under the paper's homeless protocol, and at
// each barrier the unit's writer signature for the phase that just
// ended — the per-unit concurrent-writer statistic behind the §3
// false-sharing signature (see concurrentWriters) — decides its
// protocol for the next phase. Heavily false-shared units (concurrent
// writers numbering at least half the processors, without lock churn —
// see the evidence filters in atBarrier) migrate to home-based LRC,
// whose one-exchange-per-miss beats one-exchange-per-writer there;
// other units migrate back to homeless, whose small on-demand diffs
// beat whole-unit images and per-release flushes there. A unit only
// switches after switchHysteresis consecutive phases of contrary
// evidence, so oscillating signatures don't thrash, and phases with no
// writers carry no evidence at all.
//
// atBarrier runs in the last arriver's goroutine, inside the gate, while
// every other processor is blocked awaiting its barrier release, so
// mutating the dispatch table is race-free: the gate's release publishes
// the new table to every processor (see DESIGN.md §8).
type adaptivePolicy struct {
	sys  *System
	home *homeProtocol

	// streak[u] counts consecutive evidence phases contradicting unit
	// u's current protocol; switches[u] counts u's switch events.
	// churned[u] pins a unit homeless for the rest of the run once any
	// phase closed more intervals on it than one per processor: under
	// home every closed interval is a flush, so a unit that mixes
	// lock-churn phases with quiet concurrent phases loses more during
	// the churn than home-based misses save during the quiet.
	// justSwitched[u] marks units re-pointed at the current barrier so
	// the placement rehomer leaves their fresh homes alone.
	streak       []int
	switches     []int
	churned      []bool
	justSwitched []bool
	total        int
	phase        int // 1-based count of evaluated barrier phases
}

func newAdaptivePolicy(s *System, home *homeProtocol) *adaptivePolicy {
	return &adaptivePolicy{
		sys:  s,
		home: home,

		streak:       make([]int, s.numUnits),
		switches:     make([]int, s.numUnits),
		churned:      make([]bool, s.numUnits),
		justSwitched: make([]bool, s.numUnits),
	}
}

// contended reports the network-aware half of the §8 switch rule: the
// interconnect's measured mean queue delay per message so far has
// reached the cost model's gate (sim.CostModel.Contended). O(1) — both
// totals are simnet running counters.
func (a *adaptivePolicy) contended() bool {
	s := a.sys
	msgs, _ := s.net.Counts()
	if s.tune.gate != nil {
		return s.tune.gate(s.net.QueueTotal(), int64(msgs))
	}
	return s.cost.Contended(s.net.QueueTotal(), int64(msgs))
}

// atBarrier evaluates every unit's writer signature over the phase that
// just ended (delta: the causally sorted intervals between the previous
// and the current merged barrier time) and re-points units whose
// evidence streak reached the hysteresis threshold. Called inside the
// gate by the last arrival, after all arrivals merged into merged and
// before any processor is released (and before the placement rehomer
// runs).
func (a *adaptivePolicy) atBarrier(merged vc.Time, delta []*lrc.Interval) {
	s := a.sys
	a.phase++
	for u := range a.justSwitched {
		a.justSwitched[u] = false
	}
	if len(delta) == 0 {
		return
	}
	// The network-aware evidence (§8): homeless→home migration saves
	// messages at a byte premium, which only pays while the
	// interconnect is measurably contended. On a quiet network the gate
	// holds every unit homeless — and sends home-owned units back.
	contended := a.contended()

	// The phase's intervals per unit, and the causally latest writer
	// (delta is causally sorted, so the last occurrence wins) — the
	// processor a new home pulls the image from.
	byUnit := make(map[int][]*lrc.Interval)
	lastWriter := make(map[int]int)
	for _, iv := range delta {
		for _, u := range iv.Units {
			byUnit[u] = append(byUnit[u], iv)
			lastWriter[u] = iv.ID.Proc
		}
	}

	// Ascending unit order keeps the handoff schedule — and with it the
	// send order — deterministic.
	for u := 0; u < s.numUnits; u++ {
		ivs := byUnit[u]
		if len(ivs) == 0 {
			continue // no writes, no evidence
		}
		// Home-based ownership pays off for steady barrier-phase false
		// sharing: many concurrent writers, each closing about one
		// interval per phase (≤ one per processor). Two filters keep
		// the evidence honest. Units churned by fine-grain lock
		// synchronization close many more intervals per phase, and
		// under home every closed interval is a flush to the home —
		// traffic homeless never pays — so one churn phase pins the
		// unit homeless for good, even when its writers overlap. And
		// the concurrent-writer count (the unit's §3 signature bar)
		// must reach half the processors: a home miss replaces k diff
		// exchanges with one whole-image exchange, saving k-1 message
		// overheads against a roughly fixed byte penalty, so small k
		// loses even on contended interconnects.
		if len(ivs) > s.cfg.Procs {
			a.churned[u] = true
		}
		favorsHome := contended && !a.churned[u] && 2*concurrentWriters(ivs) >= s.cfg.Procs
		curHome := s.unitProto[u] == homeIdx
		if favorsHome == curHome {
			a.streak[u] = 0
			continue
		}
		a.streak[u]++
		if a.streak[u] < s.tune.hysteresis {
			continue
		}
		a.streak[u] = 0
		a.switches[u]++
		a.total++
		a.justSwitched[u] = true
		if curHome {
			// home → homeless: every interval keeps its diffs in the
			// store, so future homeless fetches are already served;
			// relinquishing is free.
			s.unitProto[u] = homelessIdx
			if s.trc != nil {
				s.trc.ProtocolSwitch(u, "home", "homeless", a.phase)
			}
			continue
		}
		if s.trc != nil {
			s.trc.ProtocolSwitch(u, "homeless", "home", a.phase)
		}
		// homeless → home: the store already holds the unit's whole
		// diff history, which is the home's versioned log, so every
		// post-barrier fetcher (all of them cover the merged time) is
		// served without installing anything. Under a mobile placement
		// the home itself migrates to the unit's last writer — the image
		// already lives there, so nothing travels; under a static
		// placement the fixed home must pull the unit's image at the
		// merged time from the last writer, priced after the release
		// (settleMoves).
		if c := s.homeCheck; c != nil {
			c.handoff(u, merged)
		}
		if s.placement.Mobile() {
			if s.homeOf(u) != lastWriter[u] {
				if s.trc != nil {
					s.trc.Rehome(u, s.homeOf(u), lastWriter[u], 0, false)
				}
				s.homeTable[u] = int32(lastWriter[u])
				s.nRehomes++
			}
		} else {
			to := s.procs[s.homeOf(u)]
			to.moves = append(to.moves, rehomeMove{kind: simnet.HomeHandoff, unit: u, from: lastWriter[u], bytes: a.home.unitImageBytes(u, merged)})
		}
		s.unitProto[u] = homeIdx
	}
}

// concurrentWriters returns the number of distinct processors whose
// intervals among ivs are causally concurrent with another processor's
// interval — the unit's bar in the paper's §3 false-sharing signature
// for the phase. Zero or one means the unit was not falsely shared:
// distinct writers whose intervals are totally ordered (migratory data
// handed around under a lock) do not count, because for those homeless
// diffs stay cheaper than whole-unit home images.
func concurrentWriters(ivs []*lrc.Interval) int {
	procs := make(map[int]bool)
	for i, a := range ivs {
		for _, b := range ivs[i+1:] {
			if a.ID.Proc != b.ID.Proc && a.TS.Concurrent(b.TS) {
				procs[a.ID.Proc] = true
				procs[b.ID.Proc] = true
			}
		}
	}
	return len(procs)
}

// report fills a Result's adaptive accounting after the run.
func (a *adaptivePolicy) report(res *Result) {
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
	for _, ix := range a.sys.unitProto {
		if ix == homeIdx {
			res.HomeUnits++
		}
	}
}
