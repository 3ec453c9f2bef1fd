package harness

// Replay-derived sweep cells: the network-sensitivity grid re-prices
// one application under every interconnect model, but for replay-safe
// applications (apps.ReplaySafe) the message stream itself is network-
// invariant — only the pricing changes. So the harness executes ONE
// traced engine run per (protocol, configuration) base cell on the
// canonical network and derives every other interconnect's cell by
// re-pricing the captured stream (trace.MemSink.Derive), falling back
// to real execution per cell whenever a soundness check refuses.
//
// Soundness:
//   - Static protocols (homeless, home): the stream is invariant, and
//     Derive self-verifies — its base-model half must reproduce the
//     recorded totals and every reconstructed synchronization join
//     time bit-identically, or it errors and the cell runs for real.
//   - Adaptive: the per-unit policy consults the network (mean queue
//     delay per message) at each barrier episode, so the stream is
//     only conditionally invariant. A target cell is derived from the
//     homeless twin's capture when the contention gate stays closed at
//     every episode under target pricing (the policy never leaves its
//     initial homeless mode), or from a real adaptive capture on the
//     canonical contended base when the per-episode gate verdicts
//     under target pricing match the base run's (the policy would have
//     made identical switch decisions). Anything else runs for real.
//   - Schedule-sensitive applications (lock contenders: TSP, Water)
//     never derive — their stream describes one schedule, not the app.

import (
	"context"
	"sync/atomic"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// deriveBaseNetwork is the canonical network the traced base cells run
// on: the contention-free model is the cheapest to execute and its
// capture derives every other model equally well.
const deriveBaseNetwork = "ideal"

// deriveContendedBase is the network the adaptive protocol's real
// traced base runs on when some target opens the contention gate.
const deriveContendedBase = "bus"

var netDerivation atomic.Bool

func init() { netDerivation.Store(true) }

// SetNetworkDerivation toggles replay-derivation of network-sweep
// cells and returns the previous setting. Derivation is on by default;
// equivalence tests and the benchmark's all-engine round turn it off
// to force every cell through the engine.
func SetNetworkDerivation(on bool) (prev bool) { return netDerivation.Swap(on) }

// derivedFrom assembles a derived cell: re-priced time and totals from
// the derivation, protocol/placement accounting copied from the base
// run (those are stream facts — unit switches, home moves — identical
// by the same invariance that makes the derivation sound).
func derivedFrom(base Cell, d *trace.Derived) Cell {
	return Cell{
		Time: d.Time, Queue: d.Queue,
		Msgs: int(d.Msgs), Bytes: int(d.Bytes),
		SwitchedUnits: base.SwitchedUnits,
		Rehomes:       base.Rehomes,
		RehomeBytes:   base.RehomeBytes,
		HandoffBytes:  base.HandoffBytes,
		Derived:       true,
	}
}

// capture is one traced base run and the derivations asked of it: one
// future per target network, spawned as pool children the moment the
// run ends, so they price side by side — with each other and with the
// experiment's next engine run. The homeless column and the adaptive
// quiet check ask for the same (capture, network) derivations and share
// the future.
type capture struct {
	cell    Cell
	network string
	futs    map[string]*sweep.Future
}

// startCapture spawns one derivation of ms per network — on the
// capture's own network only if self is set — and releases the event
// buffer when the last of them has returned.
func startCapture(ctx context.Context, ms *trace.MemSink, cell Cell, networks []string, self bool) *capture {
	cp := &capture{cell: cell, network: ms.Meta().Network, futs: make(map[string]*sweep.Future, len(networks))}
	var left atomic.Int32
	left.Store(1) // this function's own hold, dropped when all are spawned
	drop := func() {
		if left.Add(-1) == 0 {
			ms.Release()
		}
	}
	defer drop()
	for _, network := range networks {
		if network == cp.network && !self {
			continue
		}
		left.Add(1)
		cp.futs[network] = sweep.Spawn(ctx, func(context.Context) (any, error) {
			defer drop()
			// A refusal sends one cell to the engine; it does not fail
			// the batch.
			d, _ := ms.Derive(network)
			return d, nil
		})
	}
	return cp
}

// derive waits for the capture's derivation on the named network.
// ok=false means it refused, was never asked for, or the batch was
// cancelled, and the caller must run the cell for real.
func (c *capture) derive(ctx context.Context, network string) (*trace.Derived, bool) {
	f := c.futs[network]
	if f == nil {
		return nil, false
	}
	v, err := f.Wait(ctx)
	if err != nil {
		return nil, false
	}
	d := v.(*trace.Derived)
	return d, d != nil
}

// deriveStatic prices one target network from a static-protocol base
// capture.
func deriveStatic(ctx context.Context, cp *capture, network string) (Cell, bool) {
	if network == cp.network {
		return cp.cell, true // the capture itself is this cell
	}
	d, ok := cp.derive(ctx, network)
	if !ok {
		return Cell{}, false
	}
	return derivedFrom(cp.cell, d), true
}

// adaptiveQuiet derives an adaptive cell from its homeless twin's
// capture: with the contention gate closed at every barrier episode
// under target pricing, the adaptive protocol never leaves its initial
// homeless mode and the two protocols run the same stream.
func adaptiveQuiet(ctx context.Context, cp *capture, network string) (Cell, bool) {
	d, ok := cp.derive(ctx, network)
	if !ok {
		return Cell{}, false
	}
	for _, open := range d.Gate {
		if open {
			return Cell{}, false
		}
	}
	return derivedFrom(cp.cell, d), true
}

// adaptiveContended derives an adaptive cell from a real adaptive
// capture on the contended base network: if the gate verdict sequence
// under target pricing matches the base run's, the policy would have
// made the same per-episode switch decisions, so the recorded stream
// is the target's stream too.
func adaptiveContended(ctx context.Context, cp *capture, network string) (Cell, bool) {
	if network == cp.network {
		return cp.cell, true
	}
	d, ok := cp.derive(ctx, network)
	if !ok || len(d.Gate) != len(d.BaseGate) {
		return Cell{}, false
	}
	for i := range d.Gate {
		if d.Gate[i] != d.BaseGate[i] {
			return Cell{}, false
		}
	}
	return derivedFrom(cp.cell, d), true
}

// homelessTwin returns the index of the static column whose capture an
// adaptive column c may be derived from while the contention gate stays
// closed, or -1. The gate verdicts come from central-barrier episodes
// only, so a tree-fabric adaptive column has no twin and runs for real.
func homelessTwin(configs []Config, c Config) int {
	if c.Protocol != "adaptive" || c.Barrier == "tree" {
		return -1
	}
	for tj, t := range configs {
		if t.Protocol == "homeless" &&
			t.Unit == c.Unit && t.Dynamic == c.Dynamic &&
			t.Placement == c.Placement && t.Scale == c.Scale &&
			t.Barrier == c.Barrier && t.BarrierRadix == c.BarrierRadix {
			return tj
		}
	}
	return -1
}

// deriveNetworkCells computes one experiment's full networks ×
// configs grid — a replay-safe app's sweep task — returning cells in
// the same (network-major) order the per-cell path produces.
//
// The task is a chain of engine runs, one after another and never two
// at once (two Ilink/large runs side by side double the experiment's
// resident set). The moment a traced base run ends, its derivations are
// spawned as children of the batch and the chain goes on to the next
// run; it waits for a derivation only where an answer decides what to
// run next (the adaptive columns) and at the end, where cells land by
// index. Every cell a derivation refuses is run for real, by the chain.
func deriveNetworkCells(ctx context.Context, e Experiment, procs int, networks []string, configs []Config) ([]Cell, error) {
	m := len(configs)
	out := make([]Cell, len(networks)*m)
	real := func(c Config, network string) (Cell, error) {
		if err := ctx.Err(); err != nil {
			return Cell{}, err
		}
		c.Network = network
		return runCell(e, c, procs, false, nil)
	}
	traced := func(c Config, network string, targets []string, self bool) (*capture, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.Network = network
		ms := trace.NewMemSink()
		cell, err := runCell(e, c, procs, false, ms)
		if err != nil {
			return nil, err
		}
		return startCapture(ctx, ms, cell, targets, self), nil
	}

	// Static columns: one traced base on the canonical network each,
	// derived for every other network. A column some adaptive column
	// twins with is also re-priced on its own network: the quiet check
	// needs the gate verdicts there too.
	caps := make([]*capture, m)
	for ci, c := range configs {
		if c.Protocol == "adaptive" {
			continue
		}
		twinned := false
		for _, a := range configs {
			twinned = twinned || homelessTwin(configs, a) == ci
		}
		var err error
		if caps[ci], err = traced(c, deriveBaseNetwork, networks, twinned); err != nil {
			return nil, err
		}
	}

	// Adaptive columns: quiet targets from the homeless twin's capture
	// (the twin column's own derivations when the grid has one),
	// contended targets from one real adaptive run on the contended
	// base, the rest for real.
	for ci, c := range configs {
		if c.Protocol != "adaptive" {
			continue
		}
		var twin *capture
		if tj := homelessTwin(configs, c); tj >= 0 {
			twin = caps[tj]
		} else if c.Barrier != "tree" {
			b := c
			b.Protocol = "homeless"
			var err error
			if twin, err = traced(b, deriveBaseNetwork, networks, true); err != nil {
				return nil, err
			}
		}
		quiet := make([]bool, len(networks))
		var loud []string // networks the twin could not answer for
		for ni, network := range networks {
			if twin != nil {
				out[ni*m+ci], quiet[ni] = adaptiveQuiet(ctx, twin, network)
			}
			if !quiet[ni] {
				loud = append(loud, network)
			}
		}
		var bus *capture
		if twin != nil && len(loud) > 0 {
			var err error
			if bus, err = traced(c, deriveContendedBase, loud, false); err != nil {
				return nil, err
			}
		}
		for ni, network := range networks {
			if quiet[ni] {
				continue
			}
			var cell Cell
			ok := false
			if bus != nil {
				cell, ok = adaptiveContended(ctx, bus, network)
			}
			if !ok {
				var err error
				if cell, err = real(c, network); err != nil {
					return nil, err
				}
			}
			out[ni*m+ci] = cell
		}
	}

	// Static columns land last: by now their derivations have had the
	// whole adaptive column to finish in.
	for ci, c := range configs {
		if caps[ci] == nil {
			continue
		}
		for ni, network := range networks {
			cell, ok := deriveStatic(ctx, caps[ci], network)
			if !ok {
				var err error
				if cell, err = real(c, network); err != nil {
					return nil, err
				}
			}
			out[ni*m+ci] = cell
		}
	}
	return out, nil
}
