package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/netmodel"
	"repro/internal/simnet"
)

// Reader streams events from a trace file. It validates the header line
// (schema version at most this package's Version), tolerates unknown
// JSON fields on every line (forward compatibility: newer writers may
// add fields), and skips interior header lines (a flight-recorder dump
// re-synthesizes its header, and concatenated traces are legal input).
type Reader struct {
	sc      *bufio.Scanner
	version int
	line    int
}

// maxLine bounds one JSONL line; events are small, but a generous cap
// beats a silent bufio.ErrTooLong on a future fat event.
const maxLine = 1 << 20

// NewReader opens a trace stream, consuming and validating its header.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	tr := &Reader{sc: sc}
	ev, err := tr.next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty stream (no header line)")
		}
		return nil, err
	}
	if ev.E != EvHeader {
		return nil, fmt.Errorf("trace: line 1: expected %q event, got %q", EvHeader, ev.E)
	}
	if ev.V > Version {
		return nil, fmt.Errorf("trace: schema version %d is newer than supported %d", ev.V, Version)
	}
	tr.version = ev.V
	return tr, nil
}

// Version returns the stream's schema version.
func (r *Reader) Version() int { return r.version }

// Next returns the next event, or io.EOF at end of stream. Interior
// header lines are skipped; blank lines are tolerated.
func (r *Reader) Next() (*Event, error) {
	for {
		ev, err := r.next()
		if err != nil {
			return nil, err
		}
		if ev.E == EvHeader {
			continue
		}
		return ev, nil
	}
}

func (r *Reader) next() (*Event, error) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev := new(Event)
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		if ev.E == "" {
			return nil, fmt.Errorf("trace: line %d: missing event type", r.line)
		}
		return ev, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", r.line+1, err)
	}
	return nil, io.EOF
}

// maxTraceProcs bounds a decoded run's processor count: Derive and the
// contended models size their state by it, so an unchecked count from
// outside input (two billion, say) would exhaust memory before any
// other check fired. The engine runs thousands of processors at most.
const maxTraceProcs = 1 << 16

// ReadRuns decodes a JSONL trace into one ended MemSink per run, in
// file order: the inverse of EmitJSONL. Every event goes through the
// sink's own Sink methods, so Derive re-prices a decoded run exactly as
// it would the capture that was written.
//
// A trace is outside input, and every refusal names the line: procs
// outside 1..maxTraceProcs, a duplicate run, an event for an unknown
// run or after its run_end (a run's lines are contiguous, as every
// Writer writes them), a processor outside the run, a negative byte
// count, a value the sink's 32-bit columns cannot hold, an unknown
// event type or message kind, and a run without its run_end.
func ReadRuns(r io.Reader) ([]*MemSink, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var runs []*MemSink
	var cur *MemSink // the open run; nil between runs
	var curID int64
	seen := make(map[int64]bool)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", tr.line, fmt.Sprintf(format, args...))
	}
	for {
		ev, err := tr.Next()
		switch {
		case err == io.EOF && cur != nil:
			return nil, bad("run %d has no run_end (truncated capture)", curID)
		case err == io.EOF:
			return runs, nil
		case err != nil:
			return nil, err
		case ev.E == EvRunStart && cur != nil:
			return nil, bad("run %d starts before run %d's run_end (truncated capture)", ev.R, curID)
		case ev.E == EvRunStart && seen[ev.R]:
			return nil, bad("duplicate run_start for run %d", ev.R)
		case ev.E == EvRunStart && (ev.Procs < 1 || ev.Procs > maxTraceProcs):
			return nil, bad("run %d has %d processors, want 1..%d", ev.R, ev.Procs, maxTraceProcs)
		case ev.E == EvRunStart:
			seen[ev.R] = true
			cur, curID = NewMemSink(), ev.R
			cur.Begin(ev.RunMeta)
			runs = append(runs, cur)
		case cur == nil || ev.R != curID:
			if seen[ev.R] {
				return nil, bad("event %q after run_end of run %d", ev.E, ev.R)
			}
			return nil, bad("event %q for unknown run %d", ev.E, ev.R)
		default:
			if err := decodeEvent(cur, ev, cur.meta.Procs); err != nil {
				return nil, bad("%v", err)
			}
			if ev.E == EvRunEnd {
				cur = nil
			}
		}
	}
}

// decodeEvent pushes one event of a run of procs processors into ms.
func decodeEvent(ms *MemSink, ev *Event, procs int) error {
	for _, v := range [...]int{ev.S, ev.D, ev.B, ev.RB, ev.P, ev.N, ev.U, ev.Pg, ev.L, ev.FromHome, ev.ToHome} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("%q value %d does not fit 32 bits", ev.E, v)
		}
	}
	// Fields an event does not use are zero, a processor of every run.
	if err := checkEndpoints(ev.S, ev.D, procs); err != nil {
		return err
	}
	if ev.P < 0 || ev.P >= procs {
		return fmt.Errorf("%q names processor %d outside a run of %d", ev.E, ev.P, procs)
	}
	kind, kindOK := simnet.ParseKind(ev.K)
	rkind, rkindOK := simnet.ParseKind(ev.RK)
	switch ev.E {
	case EvLeg, EvControl, EvExchange:
		if ev.B < 0 || ev.RB < 0 {
			return fmt.Errorf("negative byte count (%d, %d)", ev.B, ev.RB)
		}
		if !kindOK || (ev.E == EvExchange && !rkindOK) {
			return fmt.Errorf("unknown message kind %q or %q", ev.K, ev.RK)
		}
	}
	switch ev.E {
	case EvLeg:
		ms.TraceLeg(kind, ev.S, ev.D, ev.B, ev.At, ev.Q)
	case EvControl:
		ms.TraceControl(kind, ev.S, ev.D, ev.B, ev.At, ev.Q)
	case EvExchange:
		ms.TraceExchange(kind, rkind, ev.S, ev.D, ev.B, ev.RB, ev.At, netmodel.ExchangeTiming{
			Request: netmodel.Timing{Queue: ev.Q},
			Reply:   netmodel.Timing{Queue: ev.RQ},
		})
	case EvBarrierEnter:
		ms.BarrierEnter(ev.P, ev.At)
	case EvBarrierLeave:
		ms.BarrierLeave(ev.P, ev.N, ev.At)
	case EvLockRequest:
		ms.LockRequest(ev.P, ev.L, ev.At)
	case EvLockAcquire:
		ms.LockAcquire(ev.P, ev.L, ev.At)
	case EvLockRelease:
		ms.LockRelease(ev.P, ev.L, ev.At)
	case EvFaultBegin:
		ms.FaultBegin(ev.P, ev.Pg, ev.U, ev.At)
	case EvFaultEnd:
		ms.FaultEnd(ev.P, ev.Pg, ev.At)
	case EvSwitch:
		ms.ProtocolSwitch(ev.U, ev.FromName, ev.ToName, ev.N)
	case EvRehome:
		ms.Rehome(ev.U, ev.FromHome, ev.ToHome, ev.B, ev.Transfer)
	case EvRunEnd:
		ms.RunEnd(ev.Time, ev.Msgs, ev.Bytes, ev.Queue, ev.Clocks)
	default:
		return fmt.Errorf("unknown event type %q", ev.E)
	}
	return nil
}
