package tmk

import (
	"repro/internal/lrc"
	"repro/internal/registry"
)

// Protocol is one coherence engine: the policy for who owns a closed
// interval's diffs, and what an access miss fetches and from whom.
// Everything else — twinning and write detection, interval/vector-clock
// bookkeeping, write notices, locks, barriers, dynamic page grouping,
// the network and cost accounting — is protocol-independent and shared,
// so a new protocol is only these policies (see DESIGN.md §5). A write
// notice only invalidates its unit, whoever owns it; the fault that
// follows rebuilds the unit's missing writes from the interval store
// (notices.go) and hands the unit to its owner's Fetch.
//
// Dispatch is per *consistency unit*, not per engine: the System owns a
// dispatch table (protoOf) mapping every unit to its current owning
// protocol, and routes each operation to the owner — a release hands
// an interval's diffs to every engine, each acting on the units it
// owns, and a fault hands each stale unit to its owner's fetch policy.
// A static configuration ("homeless", "home") installs one engine
// owning every unit; the "adaptive" configuration installs both and
// re-points units at barriers (see DESIGN.md §8).
//
// Protocol instances serve one System build (Reset constructs fresh
// ones); per-processor protocol state lives on Proc (write sets, fetch
// cursors) and is reset with the processors. All methods except
// construction are called on processor goroutines; a Protocol must
// synchronize any state shared between processors itself.
type Protocol interface {
	// Release is handed every page diff of p's closing interval and
	// acts on those that fall in units this protocol owns: homeless
	// leaves them with the writer (the published interval holds them,
	// served on demand); home-based flushes them to each written unit's
	// home. Every diff stays attached to the interval the caller
	// publishes. Called on p's goroutine, before the synchronization
	// operation proceeds and before the interval is published.
	Release(p *Proc, diffs []lrc.PageDiff)

	// Fetch brings the stale units among units — all owned by this
	// protocol — up to date in p's replica: it decides whom to contact,
	// sends and prices the exchanges, applies the data and charges p's
	// clock. It takes each unit's missing writes from missingInto, which
	// consumes them. With
	// collection on, it registers one collector exchange per exchange
	// it sends (sendExchanges), which the caller's fault record counts.
	Fetch(p *Proc, units []int)
}

// DefaultProtocol is the protocol of the paper's evaluation.
const DefaultProtocol = "homeless"

// protocols is the protocol axis: each name's setup installs the
// configuration on a System under construction — the engine(s) to
// instantiate, the initial per-unit dispatch, and, for adaptive
// configurations, the policy that re-points units at barriers.
var protocols = registry.New("protocol", "protocol", DefaultProtocol, map[string]func(s *System){
	"homeless": func(s *System) { s.install(&homelessProtocol{}) },
	"home":     func(s *System) { s.install(newHomeProtocol(s)) },
	"adaptive": setupAdaptive,
})

// ProtocolNames returns the protocol names, sorted.
func ProtocolNames() []string { return protocols.Names() }

// install wires the given engines into the System: protos[0] initially
// owns every unit (adaptive policies re-point units later). Called from
// a protocol setup during NewSystem/Reset.
func (s *System) install(protos ...Protocol) {
	s.protos = protos
	s.unitProto = make([]uint8, s.numUnits)
	s.policy = nil
}

// protoOf returns the protocol currently owning unit u. The dispatch
// table is only mutated while every processor is blocked in a barrier
// (see adaptivePolicy), so reads on processor goroutines are race-free.
func (s *System) protoOf(u int) Protocol { return s.protos[s.unitProto[u]] }
