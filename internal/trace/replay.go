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

// RunReplay is the outcome of re-pricing one captured run through a
// network model, without re-executing the application.
type RunReplay struct {
	ID   int64   `json:"run"`
	Meta RunMeta `json:"meta"`
	// Network is the model the replay priced through (the capture's own
	// model unless the caller overrode it).
	Network string `json:"network"`
	// Time is the run's recorded simulated time — capture context, not
	// recomputed by replay (re-pricing legs cannot re-run the engine's
	// overlap of computation and communication).
	Time sim.Duration `json:"time"`
	// Recorded are the totals the capture's run_end line reported.
	Recorded Totals `json:"recorded"`
	// Replayed are the totals accumulated by re-pricing every message
	// event through Network. When Network is the capture's own model,
	// Replayed must equal Recorded bit-identically: the trace preserves
	// the pricing-operation sequence in pricing order, and a fresh model
	// replayed over that sequence rebuilds the same occupancy timeline.
	Replayed Totals `json:"replayed"`
}

// Matches reports whether the replayed totals reproduce the recorded
// ones exactly.
func (r *RunReplay) Matches() bool { return r.Replayed == r.Recorded }

// checkEndpoints rejects a message event that names a processor the run
// does not have. Captures are outside input, and the contended models
// keep one port per processor id they are shown: a corrupted id must be
// an error here, before it is priced.
func checkEndpoints(src, dst, procs int) error {
	if src < 0 || src >= procs || dst < 0 || dst >= procs {
		return fmt.Errorf("trace: message %d->%d names a processor outside a run of %d", src, dst, procs)
	}
	return nil
}

// replayState re-prices one run's message stream.
type replayState struct {
	out   *RunReplay
	model netmodel.Model
	ended bool
}

// Replay streams a captured trace back through a network model and
// returns one RunReplay per captured run, in run_start order. An empty
// network name replays each run through the model that captured it
// (same-model replay, the bit-identity check); a model name ("ideal",
// "bus", ...) re-prices every run through that interconnect instead —
// the cheap way to sweep one recorded execution across networks.
//
// A run_start without a matching run_end is a truncated capture and is
// an error: partial traces replay to wrong totals and must fail loudly.
func Replay(r io.Reader, network string) ([]*RunReplay, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var order []*RunReplay
	runs := make(map[int64]*replayState)
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
				return nil, fmt.Errorf("trace: duplicate run_start for run %d", ev.R)
			}
			meta := RunMeta{
				App: ev.App, Dataset: ev.Dataset,
				Protocol: ev.Protocol, Network: ev.Network, Placement: ev.Placement,
				Procs: ev.Procs, UnitPages: ev.UnitPages, Dynamic: ev.Dynamic,
				Cost: ev.Cost,
			}
			name := network
			if name == "" {
				name = meta.Network
			}
			cost := sim.DefaultCostModel()
			if meta.Cost != nil {
				cost = *meta.Cost
			}
			model, err := netmodel.New(name, cost)
			if err != nil {
				return nil, err
			}
			st := &replayState{
				out:   &RunReplay{ID: ev.R, Meta: meta, Network: model.Name()},
				model: model,
			}
			runs[ev.R] = st
			order = append(order, st.out)
			continue
		}
		st, ok := runs[ev.R]
		if !ok {
			return nil, fmt.Errorf("trace: event %q for unknown run %d", ev.E, ev.R)
		}
		if st.ended {
			return nil, fmt.Errorf("trace: event %q after run_end of run %d", ev.E, ev.R)
		}
		switch ev.E {
		case EvLeg, EvControl, EvExchange:
			if err := checkEndpoints(ev.S, ev.D, st.out.Meta.Procs); err != nil {
				return nil, err
			}
		}
		switch ev.E {
		case EvLeg:
			t := st.model.Leg(ev.S, ev.D, ev.B, ev.At)
			st.add(1, int64(ev.B), t.Queue)
		case EvControl:
			// Control messages are priced payload-free; their wire bytes
			// still count toward the byte totals (simnet.SendControl).
			t := st.model.Leg(ev.S, ev.D, 0, ev.At)
			st.add(1, int64(ev.B), t.Queue)
		case EvExchange:
			t := st.model.Exchange(ev.S, ev.D, ev.B, ev.RB, ev.At)
			st.add(2, int64(ev.B)+int64(ev.RB), t.Request.Queue+t.Reply.Queue)
		case EvRunEnd:
			st.out.Time = ev.Time
			st.out.Recorded = Totals{Msgs: ev.Msgs, Bytes: ev.Bytes, Queue: ev.Queue}
			st.ended = true
		default:
			// Lifecycle events carry no wire traffic; replay skips them.
		}
	}
	for _, out := range order {
		if !runs[out.ID].ended {
			return nil, fmt.Errorf("trace: run %d has no run_end (truncated capture)", out.ID)
		}
	}
	return order, nil
}

func (st *replayState) add(msgs, bytes int64, queue sim.Duration) {
	st.out.Replayed.Msgs += msgs
	st.out.Replayed.Bytes += bytes
	st.out.Replayed.Queue += queue
}

// RunReplaySweep is the outcome of re-pricing one captured run through
// several network models in a single streaming pass: each model prices
// the identical event sequence, so the rows are directly comparable —
// the per-interconnect sensitivity of one recorded execution.
type RunReplaySweep struct {
	ID   int64        `json:"run"`
	Meta RunMeta      `json:"meta"`
	Time sim.Duration `json:"time"`
	// Recorded are the totals the capture's run_end line reported.
	Recorded Totals `json:"recorded"`
	// Networks and Replayed are parallel: Replayed[i] is the totals of
	// re-pricing the run's message events through Networks[i].
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

// ReplayAll streams a captured trace back through every named network
// model at once — one pass over the events, one fresh model instance
// per run per network — and returns one sweep per captured run, in
// run_start order. A nil or empty network list sweeps every registered
// model. Truncated captures (run_start without run_end) are an error,
// as in Replay.
func ReplayAll(r io.Reader, networks []string) ([]*RunReplaySweep, error) {
	if len(networks) == 0 {
		networks = netmodel.Names()
	}
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	type sweepState struct {
		out    *RunReplaySweep
		models []netmodel.Model
		ended  bool
	}
	var order []*RunReplaySweep
	runs := make(map[int64]*sweepState)
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
				return nil, fmt.Errorf("trace: duplicate run_start for run %d", ev.R)
			}
			meta := RunMeta{
				App: ev.App, Dataset: ev.Dataset,
				Protocol: ev.Protocol, Network: ev.Network, Placement: ev.Placement,
				Procs: ev.Procs, UnitPages: ev.UnitPages, Dynamic: ev.Dynamic,
				Cost: ev.Cost,
			}
			cost := sim.DefaultCostModel()
			if meta.Cost != nil {
				cost = *meta.Cost
			}
			st := &sweepState{
				out: &RunReplaySweep{
					ID: ev.R, Meta: meta,
					Networks: append([]string(nil), networks...),
					Replayed: make([]Totals, len(networks)),
				},
			}
			for _, name := range networks {
				model, err := netmodel.New(name, cost)
				if err != nil {
					return nil, err
				}
				st.models = append(st.models, model)
			}
			runs[ev.R] = st
			order = append(order, st.out)
			continue
		}
		st, ok := runs[ev.R]
		if !ok {
			return nil, fmt.Errorf("trace: event %q for unknown run %d", ev.E, ev.R)
		}
		if st.ended {
			return nil, fmt.Errorf("trace: event %q after run_end of run %d", ev.E, ev.R)
		}
		switch ev.E {
		case EvLeg, EvControl, EvExchange:
			if err := checkEndpoints(ev.S, ev.D, st.out.Meta.Procs); err != nil {
				return nil, err
			}
		}
		switch ev.E {
		case EvLeg:
			for i, m := range st.models {
				t := m.Leg(ev.S, ev.D, ev.B, ev.At)
				st.out.Replayed[i].Msgs++
				st.out.Replayed[i].Bytes += int64(ev.B)
				st.out.Replayed[i].Queue += t.Queue
			}
		case EvControl:
			for i, m := range st.models {
				t := m.Leg(ev.S, ev.D, 0, ev.At)
				st.out.Replayed[i].Msgs++
				st.out.Replayed[i].Bytes += int64(ev.B)
				st.out.Replayed[i].Queue += t.Queue
			}
		case EvExchange:
			for i, m := range st.models {
				t := m.Exchange(ev.S, ev.D, ev.B, ev.RB, ev.At)
				st.out.Replayed[i].Msgs += 2
				st.out.Replayed[i].Bytes += int64(ev.B) + int64(ev.RB)
				st.out.Replayed[i].Queue += t.Request.Queue + t.Reply.Queue
			}
		case EvRunEnd:
			st.out.Time = ev.Time
			st.out.Recorded = Totals{Msgs: ev.Msgs, Bytes: ev.Bytes, Queue: ev.Queue}
			st.ended = true
		default:
			// Lifecycle events carry no wire traffic; replay skips them.
		}
	}
	for _, out := range order {
		if !runs[out.ID].ended {
			return nil, fmt.Errorf("trace: run %d has no run_end (truncated capture)", out.ID)
		}
	}
	return order, nil
}
