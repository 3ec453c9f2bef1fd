package trace

import (
	"fmt"
	"io"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Totals are the wire totals accumulated over one run's message events:
// message count, payload bytes, cumulative queue delay.
type Totals struct {
	Msgs  int64        `json:"messages"`
	Bytes int64        `json:"bytes"`
	Queue sim.Duration `json:"queue"`
}

// RunReplaySweep is the outcome of re-pricing one captured run through
// one or more network models in a single streaming pass, without
// re-executing the application: each model prices the identical event
// sequence, so the rows are directly comparable — the per-interconnect
// sensitivity of one recorded execution.
type RunReplaySweep struct {
	ID   int64   `json:"run"`
	Meta RunMeta `json:"meta"`
	// Time is the run's recorded simulated time — capture context, not
	// recomputed by replay (re-pricing legs cannot re-run the engine's
	// overlap of computation and communication).
	Time sim.Duration `json:"time"`
	// Recorded are the totals the capture's run_end line reported.
	Recorded Totals `json:"recorded"`
	// Networks and Replayed are parallel: Replayed[i] is the totals of
	// re-pricing the run's message events through Networks[i]. Through
	// the capture's own model, Replayed must equal Recorded
	// bit-identically: the trace preserves the pricing-operation sequence
	// in pricing order, and a fresh model replayed over that sequence
	// rebuilds the same occupancy timeline.
	Networks []string `json:"networks"`
	Replayed []Totals `json:"replayed"`
}

// Matches reports whether the replay through the capture's own model
// (if among the sweep's networks) reproduced the recorded totals
// bit-identically. Sweeps that exclude the capture's model trivially
// match.
func (r *RunReplaySweep) Matches() bool {
	for i, n := range r.Networks {
		if n == r.Meta.Network && r.Replayed[i] != r.Recorded {
			return false
		}
	}
	return true
}

// maxTraceProcs bounds a replayed run's processor count. The contended
// models keep a port per processor id they are shown, so a run_start's
// procs is what one run may make replay allocate; an unchecked count
// from outside input (two billion, say) exhausts memory before any
// other check can fire. The engine runs thousands of processors at
// most, far below this.
const maxTraceProcs = 1 << 16

// checkEndpoints rejects a message event that names a processor the run
// does not have. Captures are outside input, and the contended models
// keep one port per processor id they are shown: a corrupted id must be
// an error here, before it is priced.
func checkEndpoints(src, dst, procs int) error {
	if src < 0 || src >= procs || dst < 0 || dst >= procs {
		return fmt.Errorf("message %d->%d names a processor outside a run of %d", src, dst, procs)
	}
	return nil
}

// Replay streams a captured trace back through network models — one
// pass over the events, one fresh model instance per run per network —
// and returns one sweep per captured run, in run_start order. An empty
// name in networks replays each run through the model that captured it
// (same-model replay, the bit-identity check); a model name ("ideal",
// "bus", ...) re-prices every run through that interconnect — the cheap
// way to sweep one recorded execution across networks. A nil or empty
// list sweeps every registered model.
//
// The trace is outside input: a run_start whose procs is outside
// 1..maxTraceProcs, an event naming a processor outside its run, and a
// negative byte count are errors naming the line. A run_start without a
// matching run_end is a truncated capture and is an error too: partial
// traces replay to wrong totals and must fail loudly.
func Replay(r io.Reader, networks []string) ([]*RunReplaySweep, error) {
	if len(networks) == 0 {
		networks = netmodel.Names()
	}
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	type runState struct {
		out    *RunReplaySweep
		models []netmodel.Model
		ended  bool
	}
	var order []*RunReplaySweep
	runs := make(map[int64]*runState)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", tr.line, fmt.Sprintf(format, args...))
	}
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.E == EvRunStart {
			if _, dup := runs[ev.R]; dup {
				return nil, bad("duplicate run_start for run %d", ev.R)
			}
			if ev.Procs < 1 || ev.Procs > maxTraceProcs {
				return nil, bad("run %d has %d processors, want 1..%d", ev.R, ev.Procs, maxTraceProcs)
			}
			st := &runState{out: &RunReplaySweep{
				ID: ev.R,
				Meta: RunMeta{
					App: ev.App, Dataset: ev.Dataset,
					Protocol: ev.Protocol, Network: ev.Network, Placement: ev.Placement,
					Procs: ev.Procs, UnitPages: ev.UnitPages, Dynamic: ev.Dynamic,
					Barrier: ev.Barrier, BarrierRadix: ev.BarrRadix,
					Cost: ev.Cost,
				},
				Replayed: make([]Totals, len(networks)),
			}}
			cost := sim.DefaultCostModel()
			if ev.Cost != nil {
				cost = *ev.Cost
			}
			for _, name := range networks {
				if name == "" {
					name = ev.Network
				}
				model, err := netmodel.New(name, cost)
				if err != nil {
					return nil, bad("%v", err)
				}
				st.models = append(st.models, model)
				st.out.Networks = append(st.out.Networks, model.Name())
			}
			runs[ev.R] = st
			order = append(order, st.out)
			continue
		}
		st, ok := runs[ev.R]
		if !ok {
			return nil, bad("event %q for unknown run %d", ev.E, ev.R)
		}
		if st.ended {
			return nil, bad("event %q after run_end of run %d", ev.E, ev.R)
		}
		switch ev.E {
		case EvLeg, EvControl, EvExchange:
			if err := checkEndpoints(ev.S, ev.D, st.out.Meta.Procs); err != nil {
				return nil, bad("%v", err)
			}
			if ev.B < 0 || ev.RB < 0 {
				return nil, bad("negative byte count (%d, %d)", ev.B, ev.RB)
			}
		}
		for i, m := range st.models {
			t := &st.out.Replayed[i]
			switch ev.E {
			case EvLeg:
				t.Msgs++
				t.Bytes += int64(ev.B)
				t.Queue += m.Leg(ev.S, ev.D, ev.B, ev.At).Queue
			case EvControl:
				// Control messages are priced payload-free; their wire
				// bytes still count toward the byte totals
				// (simnet.SendControl).
				t.Msgs++
				t.Bytes += int64(ev.B)
				t.Queue += m.Leg(ev.S, ev.D, 0, ev.At).Queue
			case EvExchange:
				x := m.Exchange(ev.S, ev.D, ev.B, ev.RB, ev.At)
				t.Msgs += 2
				t.Bytes += int64(ev.B) + int64(ev.RB)
				t.Queue += x.Request.Queue + x.Reply.Queue
			}
		}
		if ev.E == EvRunEnd {
			st.out.Time = ev.Time
			st.out.Recorded = Totals{Msgs: ev.Msgs, Bytes: ev.Bytes, Queue: ev.Queue}
			st.ended = true
			st.models = nil
		}
	}
	for _, out := range order {
		if !runs[out.ID].ended {
			return nil, fmt.Errorf("trace: run %d has no run_end (truncated capture)", out.ID)
		}
	}
	return order, nil
}
