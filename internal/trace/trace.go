// Package trace records what a run put on the simulated wire — one
// event per simnet pricing operation (leg, control leg, request/reply
// exchange) — interleaved with the engine's lifecycle events (barrier
// enter/leave, lock acquire/release, page fault begin/end, protocol
// switches, home moves).
//
// The engine captures through one interface, Sink, into a MemSink: the
// events are stored under the same lock that prices the messages, so
// the capture holds the exact operation sequence the network model
// saw. JSONL is the capture's interchange encoding, written by
// MemSink.EmitJSONL (Writer.Sink does so as each run ends). That makes
// the format load-bearing: ReadRuns decodes it back into one MemSink
// per run, the capture that was written, so Derive re-prices a JSONL
// run through any interconnect without re-executing the application —
// and through the run's *own* model reproduces its time, message,
// byte, and queue-delay totals bit-identically (pinned by test).
//
// One Writer may serve several Systems concurrently (a sweep tracing
// every cell into one file): every run's lines are written together
// under their own run id. Readers tolerate unknown fields, so the
// schema can grow without breaking old analyzers; the Version field in
// the header line gates incompatible changes.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
)

// Version is the schema version this package writes. Readers accept
// files of the same or lower version.
const Version = 1

// Event types. Every JSONL line is one Event; E discriminates.
const (
	// EvHeader is the file's first line: schema version only.
	EvHeader = "header"
	// EvRunStart opens one engine run: run id plus the run's identity
	// (app, dataset, protocol, network, placement, procs, unit geometry,
	// cost calibration, barrier fabric) — the RunMeta Derive rebuilds
	// the run's pricing model and synchronization joins from.
	EvRunStart = "run_start"
	// EvRunEnd closes a run with its recorded totals: simulated time,
	// messages, payload bytes, cumulative queue delay, and each
	// processor's final clock (clocks; absent in captures written
	// before it existed, which Derive refuses). Derive's base-model
	// half is checked against these.
	EvRunEnd = "run_end"

	// EvLeg is one one-way message priced with its payload.
	EvLeg = "leg"
	// EvControl is one control message priced payload-free (the bytes
	// field still records the wire size, matching simnet.SendControl).
	EvControl = "ctl"
	// EvExchange is one request/reply pair priced as a single exchange.
	EvExchange = "xchg"

	// EvBarrierEnter marks a processor arriving at a barrier (clock at
	// arrival, before the arrival message); EvBarrierLeave marks its
	// departure (clock after the release message), with N the 1-based
	// barrier episode.
	EvBarrierEnter = "barrier_enter"
	EvBarrierLeave = "barrier_leave"
	// EvLockRequest marks a processor asking for lock L (clock at the
	// request, before the request message); EvLockAcquire marks it being
	// granted the lock; EvLockRelease marks it releasing. The request
	// event is what ties the payload-free LockRequest/LockForward control
	// legs and the LockGrant leg back to a lock id — derivation needs
	// that to rebuild grant times under a different interconnect.
	EvLockRequest = "lock_req"
	EvLockAcquire = "lock_acq"
	EvLockRelease = "lock_rel"
	// EvFaultBegin marks a read/access fault on a page (clock at trap);
	// EvFaultEnd marks the fault serviced (clock after the fetch).
	EvFaultBegin = "fault"
	EvFaultEnd   = "fault_end"
	// EvSwitch marks the adaptive protocol re-pointing a unit between
	// engines at a barrier (N: the policy's evidence phase).
	EvSwitch = "switch"
	// EvRehome marks the placement layer moving a unit's home (Transfer
	// reports whether home state travelled on the wire, B its size).
	EvRehome = "rehome"
)

// Event is one JSONL line. A single struct covers every event type so
// encode→decode round-trips by plain struct equality; fields irrelevant
// to a type stay zero and are omitted from the wire. Decoders ignore
// unknown fields (forward compatibility) and treat absent fields as
// zero.
type Event struct {
	E string `json:"e"`
	V int    `json:"v,omitempty"` // header: schema version
	R int64  `json:"r,omitempty"` // run id (all events except header)

	// Message pricing operations.
	K  string       `json:"k,omitempty"`  // message kind (request kind on xchg)
	RK string       `json:"rk,omitempty"` // reply kind (xchg only)
	S  int          `json:"s,omitempty"`  // source processor
	D  int          `json:"d,omitempty"`  // destination processor
	B  int          `json:"b,omitempty"`  // payload bytes (request bytes on xchg)
	RB int          `json:"rb,omitempty"` // reply payload bytes (xchg only)
	At sim.Duration `json:"at,omitempty"` // sender's virtual clock at send
	Q  sim.Duration `json:"q,omitempty"`  // queue delay (request leg on xchg)
	RQ sim.Duration `json:"rq,omitempty"` // reply leg queue delay (xchg only)

	// Engine lifecycle.
	P        int    `json:"p,omitempty"`      // processor
	N        int    `json:"n,omitempty"`      // barrier episode / evidence phase
	U        int    `json:"u,omitempty"`      // consistency unit
	Pg       int    `json:"pg,omitempty"`     // page
	L        int    `json:"l,omitempty"`      // lock id
	FromName string `json:"fproto,omitempty"` // switch: previous engine
	ToName   string `json:"tproto,omitempty"` // switch: next engine
	FromHome int    `json:"fhome,omitempty"`  // rehome: previous home
	ToHome   int    `json:"thome,omitempty"`  // rehome: next home
	Transfer bool   `json:"tr,omitempty"`     // rehome: state moved on the wire

	// Run identity (run_start).
	RunMeta

	// Recorded totals (run_end).
	Time  sim.Duration `json:"time,omitempty"`
	Msgs  int64        `json:"msgs,omitempty"`
	Bytes int64        `json:"bytes,omitempty"`
	Queue sim.Duration `json:"queue,omitempty"`
	// Clocks are the processors' final virtual clocks, by processor id
	// (Result.ProcTimes); Time is their max. Derive needs them.
	Clocks []sim.Duration `json:"clocks,omitempty"`
}

// RunMeta is one run's identity, written on its run_start line.
type RunMeta struct {
	App       string `json:"app,omitempty"`
	Dataset   string `json:"dataset,omitempty"`
	Protocol  string `json:"protocol,omitempty"`
	Network   string `json:"network,omitempty"`
	Placement string `json:"placement,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	UnitPages int    `json:"unit_pages,omitempty"`
	Dynamic   bool   `json:"dynamic,omitempty"`
	// Barrier is the run's barrier fabric ("central" or "tree") and
	// BarrierRadix the tree's fan-in; derivation reconstructs barrier
	// release times from them. Empty means central.
	Barrier      string `json:"barrier,omitempty"`
	BarrierRadix int    `json:"barrier_radix,omitempty"`
	// Cost is the run's communication cost calibration; Derive rebuilds
	// the pricing models from it. Nil means sim.DefaultCostModel.
	Cost *sim.CostModel `json:"cost,omitempty"`
}

// Writer emits a trace stream: one header line, then runs. It is safe
// for concurrent use — several Systems may share one Writer, each run
// under its own id. A run's lines are written together, one Write call
// per line, so line-atomic sinks (Ring, os.File) never see torn lines.
//
// Write errors are sticky: the first one is retained and every later
// line is dropped. Callers must check Err (or Close) when capture ends —
// a trace that could not be fully written must fail loudly, never pass
// silently as a truncated file that replays to wrong totals.
type Writer struct {
	mu      sync.Mutex
	out     io.Writer
	err     error
	nextRun int64
	line    bytes.Buffer
	enc     *json.Encoder // encodes into line
}

// NewWriter starts a trace stream on out, writing the header line —
// unless out is a flight recorder's Ring, which holds events only and
// writes its own header at each Dump.
func NewWriter(out io.Writer) *Writer {
	w := &Writer{out: out}
	w.enc = json.NewEncoder(&w.line)
	if _, ring := out.(*Ring); !ring {
		w.mu.Lock()
		w.emit(&Event{E: EvHeader, V: Version})
		w.mu.Unlock()
	}
	return w
}

// Err returns the first write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes nothing (the Writer is unbuffered; wrap a bufio.Writer
// if the sink needs it) but surfaces the sticky write error, so
// `defer`-friendly callers cannot drop a partial trace on the floor.
func (w *Writer) Close() error { return w.Err() }

// emit writes one line. The caller holds w.mu.
func (w *Writer) emit(ev *Event) {
	if w.err != nil {
		return
	}
	w.line.Reset()
	if err := w.enc.Encode(ev); err != nil {
		// Event structs always marshal; keep the invariant visible.
		panic(fmt.Sprintf("trace: marshal failed: %v", err))
	}
	if _, err := w.out.Write(w.line.Bytes()); err != nil {
		w.err = fmt.Errorf("trace: write failed: %w", err)
	}
}

// beginRun assigns the next run id and writes the run_start line. The
// caller holds w.mu.
func (w *Writer) beginRun(meta RunMeta) int64 {
	w.nextRun++
	w.emit(&Event{E: EvRunStart, R: w.nextRun, RunMeta: meta})
	return w.nextRun
}

// Sink returns a capture sink that writes each run it sees to w as it
// ends, labeled with the workload's app and dataset (the engine knows
// its configuration but not which workload drives it; empty leaves the
// run unlabeled): the run is buffered in a MemSink, emitted with
// EmitJSONL at RunEnd, and the buffer released. A System running
// several trials therefore writes one run id per trial. Like any
// MemSink, the sink holds one run at a time: give each System that runs
// alongside others its own; they may all share w. Write errors stay in
// w and surface through Close.
func (w *Writer) Sink(app, dataset string) Sink {
	return &writerSink{MemSink: NewMemSink(), w: w, app: app, dataset: dataset}
}

type writerSink struct {
	*MemSink
	w            *Writer
	app, dataset string
}

func (s *writerSink) RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration) {
	s.MemSink.RunEnd(time, msgs, bytes, queue, clocks)
	_ = s.EmitJSONL(s.w, s.app, s.dataset) // a write error sticks in s.w
	s.Release()
}
