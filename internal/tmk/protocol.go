package tmk

import (
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/registry"
)

// Protocol is one coherence engine: the policy for who owns a closed
// interval's diffs, what an access miss fetches and from whom, and how
// a write notice is applied at an acquire. Everything else — twinning
// and write detection, interval/vector-clock bookkeeping, locks,
// barriers, dynamic page grouping, the network and cost accounting —
// is protocol-independent and shared, so a new protocol is only these
// policies (see DESIGN.md §5).
//
// Dispatch is per *consistency unit*, not per engine: the System owns a
// dispatch table (protoOf) mapping every unit to its current owning
// protocol, and routes each operation to the owner — a release hands
// an interval's diffs to every engine, each acting on the units it
// owns, an acquire applies each notice through the noticed unit's
// owner, and a fault hands each stale unit to its owner's fetch
// policy. A static configuration ("homeless", "home") installs one
// engine owning every unit; the "adaptive" configuration installs both
// and re-points units at barriers (see DESIGN.md §8).
//
// Protocol instances serve one System build (Reset constructs fresh
// ones); per-processor protocol state lives on Proc (twins,
// missing-write lists) and is reset with the processors. All methods
// except construction are called on processor goroutines; a Protocol
// must synchronize any state shared between processors itself.
type Protocol interface {
	// Name returns the engine name ("homeless", "home").
	Name() string

	// AcquireUnit applies one write notice to p: remote interval iv
	// (never p's own) wrote unit u, which this protocol owns. It
	// performs the invalidation policy and the missing-write
	// bookkeeping that later drives Fetch. The caller iterates the
	// acquire's delta in causal order and its units in notice order,
	// and charges the notices' wire size itself. In sparse mode, where
	// no engine keeps per-notice state, a barrier may apply a unit's
	// notices as one invalidation without calling AcquireUnit at all
	// (applyBarrierGrant's held-unit walk).
	AcquireUnit(p *Proc, iv *lrc.Interval, u int)

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
	// sends and prices the exchanges, applies the data, charges p's
	// clock, and clears the consumed missing-write state. With
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

// invalidator is the write-notice policy shared by all protocols: an
// acquire invalidates every noticed unit and records the interval as a
// missing write, so the unit stays invalid until the next access fault
// fetches it. The sparse engine skips only the host-side list append —
// fault-time reconstruction from the store's publish log recovers the
// identical list (see notices.go) — while the invalidation and its
// ProtOp charge stay, keeping virtual time and wire traffic unchanged.
type invalidator struct{}

func (invalidator) AcquireUnit(p *Proc, iv *lrc.Interval, u int) {
	if !p.sys.sparseMode() {
		p.missing[u] = append(p.missing[u], lrc.MissingWrite{Interval: iv})
	}
	if p.pt.State(u) != mem.Invalid {
		p.setState(u, mem.Invalid)
		p.clock.Advance(p.sys.cost.ProtOp)
	}
}
