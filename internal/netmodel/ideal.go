package netmodel

import "repro/internal/sim"

// ideal is the contention-free model: the flat sim.CostModel arithmetic
// the engine used before the netmodel subsystem existed. Its timings
// are bit-identical to that arithmetic — a leg costs
// MessageLeg + bytes×PerByte and an exchange costs
// RoundTrip + RequestService — so golden-count tests pin it exactly.
type ideal struct {
	cost sim.CostModel
}

func (ideal) Name() string { return "ideal" }

// StatelessPricing marks the model's pricing as pure: it keeps no
// occupancy state, so concurrent callers need no serialization.
func (ideal) StatelessPricing() {}

func (m ideal) Leg(src, dst, bytes int, at sim.Duration) Timing {
	return Timing{Total: m.cost.MessageLeg + sim.Duration(bytes)*m.cost.PerByte}
}

func (m ideal) Exchange(src, dst, reqBytes, replyBytes int, at sim.Duration) ExchangeTiming {
	return ExchangeTiming{
		Request: m.Leg(src, dst, reqBytes, at),
		Service: m.cost.RequestService,
		Reply:   m.Leg(dst, src, replyBytes, at),
	}
}

func (ideal) Reset() {}
