// Package netmodel is the pluggable network-timing subsystem: a family
// of interconnect models that price the DSM's protocol messages, from
// the paper's flat per-message cost arithmetic ("ideal") to
// contention-aware occupancy models of a shared-medium Ethernet
// ("bus"), the paper's switched Ethernet with per-NIC ports ("switch"),
// and a preset family of faster interconnects ("atm", "myrinet",
// "10gbe").
//
// A Model prices a one-way leg or a request/reply exchange given the
// endpoints, the payload size, and the sender's *virtual* send time.
// Contended models keep occupancy state (when the bus or a NIC port is
// next free) in virtual time: a leg departing at t starts transmitting
// at max(t, resourceFree), and the difference is its queue delay. No
// separate event loop exists — queuing delay emerges from the engine's
// existing per-processor time accounting (see DESIGN.md §6 for why
// this is sound given the engine's synchronous hand-offs).
//
// Models are selected by name; internal/simnet resolves the configured
// name and delegates all pricing here.
package netmodel

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/sim"
)

// Timing is the outcome of pricing one message leg.
type Timing struct {
	// Total is the elapsed virtual time from the send until delivery:
	// software overhead + queue delay + transmission + propagation.
	Total sim.Duration
	// Queue is the contention component of Total — time the leg spent
	// waiting for a shared resource (bus, NIC port). Zero on the ideal
	// model.
	Queue sim.Duration
}

// ExchangeTiming is the outcome of pricing one request/reply exchange.
type ExchangeTiming struct {
	// Request and Reply are the two legs' timings.
	Request Timing
	Reply   Timing
	// Service is the remote-side cost of servicing the request between
	// the legs.
	Service sim.Duration
}

// Total is the elapsed virtual time of the whole exchange.
func (e ExchangeTiming) Total() sim.Duration {
	return e.Request.Total + e.Service + e.Reply.Total
}

// Queue is the exchange's total contention delay.
func (e ExchangeTiming) Queue() sim.Duration {
	return e.Request.Queue + e.Reply.Queue
}

// Model prices protocol messages on one interconnect. Implementations
// must be safe for concurrent use by all processor goroutines, and
// contended models must advance their occupancy state on the virtual
// send times they are given.
type Model interface {
	// Name returns the registry name.
	Name() string

	// Leg prices one one-way message of payloadBytes from src to dst,
	// departing at the sender's virtual time at.
	Leg(src, dst, bytes int, at sim.Duration) Timing

	// Exchange prices a request/reply pair: the request leg departs
	// src at the virtual time at, is serviced at dst, and the reply
	// leg returns to src.
	Exchange(src, dst, reqBytes, replyBytes int, at sim.Duration) ExchangeTiming

	// Reset clears all occupancy state, returning the model to its
	// freshly built condition (called between independent trials).
	Reset()
}

// Stateless marks models whose pricing is a pure function of its
// arguments: Leg and Exchange read no mutable occupancy state, so
// callers may invoke them concurrently without serialization. The
// ideal model qualifies; contention-aware occupancy models do not.
// internal/simnet uses this capability to drop its pricing lock while
// no trace sink is installed.
type Stateless interface {
	Model
	// StatelessPricing is a marker; implementations do nothing.
	StatelessPricing()
}

// IsStateless reports whether m's pricing is pure (see Stateless).
func IsStateless(m Model) bool {
	_, ok := m.(Stateless)
	return ok
}

// Default is the model of the paper's cost calibration: the flat
// arithmetic the engine used before this subsystem existed.
const Default = "ideal"

// models is the network axis: every model's factory by name.
var models = registry.New("network", "network model", Default, map[string]func(sim.CostModel) Model{
	"ideal": func(c sim.CostModel) Model { return ideal{cost: c} },
	"bus": func(c sim.CostModel) Model {
		return &bus{name: "bus", p: ParamsFromCost(c)}
	},
	"switch": func(c sim.CostModel) Model {
		return newSwitched("switch", ParamsFromCost(c))
	},
	"atm":     Preset("atm", Scale{Bandwidth: 1.55, Overhead: 1, Latency: 1}),
	"myrinet": Preset("myrinet", Scale{Bandwidth: 12.8, Overhead: 10, Latency: 5}),
	"10gbe":   Preset("10gbe", Scale{Bandwidth: 100, Overhead: 20, Latency: 10}),
})

// New builds the named model over the given cost calibration. The name
// is canonicalized like every axis name (empty selects Default); an
// unknown one is an error listing the registered models.
func New(name string, cost sim.CostModel) (Model, error) {
	c, err := models.Canonical(name)
	if err != nil {
		return nil, fmt.Errorf("netmodel: %w", err)
	}
	return models.Get(c)(cost), nil
}

// Canonical returns a network name's canonical form (Default for "").
func Canonical(name string) (string, error) { return models.Canonical(name) }

// Names returns the registered model names, sorted.
func Names() []string { return models.Names() }
