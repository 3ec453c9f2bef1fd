package tmk

import (
	"slices"

	"repro/internal/registry"
)

// The coherence protocol is decided one consistency unit at a time, by
// System.unitHome[u]. A homeless unit is served by its concurrent
// writers (TreadMarks' protocol, the one the paper evaluates): diffs
// stay with their writer, and a miss fetches them from each writer. A
// home unit is served by its home processor (home-based LRC): a release
// flushes the unit's diffs to the home (flushHome), and a miss fetches
// the unit's whole pages from it. Everything else — write detection,
// intervals and vector clocks, write notices, locks, barriers, dynamic
// page grouping, the network and cost accounting — does not depend on
// the bit. A write notice only invalidates its unit, whatever the bit
// says; the fault that follows rebuilds the unit's missing writes from
// the interval store (notices.go) and serves them by the unit's bit
// (fetch). See DESIGN.md §5.
//
// The bits are written only while every processor is blocked in a
// barrier (adaptivePolicy.decide), so reads on processor goroutines are
// race-free.

// DefaultProtocol is the protocol of the paper's evaluation.
const DefaultProtocol = "homeless"

// protocolMode is what a protocol name selects: whether every unit
// starts home, and whether the adaptive policy flips units at barriers.
type protocolMode struct{ home, adaptive bool }

// protocols is the protocol axis. "adaptive" starts every unit homeless.
var protocols = registry.New("protocol", "protocol", DefaultProtocol, map[string]protocolMode{
	"homeless": {},
	"home":     {home: true},
	"adaptive": {adaptive: true},
})

// ProtocolNames returns the protocol names, sorted.
func ProtocolNames() []string { return protocols.Names() }

// fetch brings the stale units among units up to date in p's replica,
// each by its unit's bit: it sends and prices the exchanges, applies the
// data and charges p's clock, and consumes each unit's missing writes
// (missingInto). With collection on, every exchange it sends is one
// collector exchange, which the caller's fault record counts. A dynamic
// page group that spans both kinds of unit (only under adaptive) is
// served in two fetches, homeless units first, each handed its units in
// order, partitioned into p.owned; the two serialize on p's clock.
func (p *Proc) fetch(units []int) {
	s := p.sys
	home := s.unitHome[units[0]]
	if !slices.ContainsFunc(units, func(u int) bool { return s.unitHome[u] != home }) {
		p.fetchUnits(units, home)
		return
	}
	for _, home := range [...]bool{false, true} {
		owned := p.owned[:0]
		for _, u := range units {
			if s.unitHome[u] == home {
				owned = append(owned, u)
			}
		}
		p.owned = owned
		p.fetchUnits(owned, home)
	}
}

// fetchUnits gathers the missing writes of units, which all share the
// bit home, and serves them: from each writer (fetchDiffs) or from each
// unit's home (fetchPages).
func (p *Proc) fetchUnits(units []int, home bool) {
	fs := &p.fs
	fs.needs, fs.peers = fs.needs[:0], fs.peers[:0]
	for _, u := range units {
		if fs.missScratch = p.missingInto(u, fs.missScratch); len(fs.missScratch) > 0 {
			fs.addNeeds(u, fs.missScratch)
			if home {
				fs.peers = append(fs.peers, peerWork{peer: p.sys.homeOf(u), n: u})
			}
		}
	}
	if home {
		p.fetchPages()
	} else {
		p.fetchDiffs()
	}
}
