package trace

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Event opcodes in a MemSink's buffer. One byte discriminates; the
// generic integer columns are interpreted per opcode (see push sites).
const (
	opLeg uint8 = iota
	opControl
	opExchange
	opBarrierEnter
	opBarrierLeave
	opLockRequest
	opLockAcquire
	opLockRelease
	opFaultBegin
	opFaultEnd
	opSwitch
	opRehome
)

// blockEvents is how many events one block of a capture holds: 47 KB
// of columns. Most captures are small — every registered small and
// medium dataset at 8 processors but one records under 4 k events, and
// the service stores up to 64 of them — so a block is sized to waste
// little there; the 155 k events of Ilink/large are 153 blocks.
const (
	blockShift  = 10
	blockEvents = 1 << blockShift
)

// block is every column of blockEvents consecutive events in one
// pointer-free allocation. a/b/c are generic integer operands: src/dst
// for messages, proc/episode/lock/page/unit for lifecycle events,
// from/to for rehomes.
type block struct {
	at [blockEvents]int64 // sender's virtual clock at send / lifecycle clock
	q  [blockEvents]int64 // recorded queue delay (request leg on exchanges)
	rq [blockEvents]int64 // recorded reply-leg queue delay (exchanges only)

	a, b, c [blockEvents]int32
	nb      [blockEvents]int32 // payload bytes (request bytes on exchanges)
	rb      [blockEvents]int32 // reply payload bytes (exchanges only)

	op    [blockEvents]uint8
	kind  [blockEvents]uint8 // simnet.MsgKind (request kind on exchanges)
	rkind [blockEvents]uint8 // reply kind (exchanges only)
}

// blockPool recycles the blocks of released captures: a sweep drops
// each capture a few derivations after it was made.
var blockPool = sync.Pool{New: func() any { return new(block) }}

// cols is a run of consecutive events, column by column; every slice
// has the same length.
type cols struct {
	op, kind, rkind []uint8
	a, b, c, nb, rb []int32
	at, q, rq       []int64
}

// cols returns the block's first n events.
func (b *block) cols(n int) cols {
	return cols{
		op: b.op[:n], kind: b.kind[:n], rkind: b.rkind[:n],
		a: b.a[:n], b: b.b[:n], c: b.c[:n], nb: b.nb[:n], rb: b.rb[:n],
		at: b.at[:n], q: b.q[:n], rq: b.rq[:n],
	}
}

// stream is an ended capture as its readers see it: what RunEnd
// recorded and the events in order, a window per block. Nothing in it
// changes, so any number of readers may walk it at once.
type stream struct {
	meta   RunMeta
	time   sim.Duration
	msgs   int64
	bytes  int64
	queue  sim.Duration
	clocks []sim.Duration
	names  []string // interned strings (protocol names on switch events)
	wins   []cols
}

// MemSink is the in-memory capture buffer: a struct-of-arrays event log
// that costs one store per field inside simnet's pricing lock — no
// encoding, and one allocation per blockEvents events: a capture never
// re-grows what it already holds. Reset keeps the blocks, so a reused
// sink captures subsequent runs allocation-free (pinned by the
// alloc-budget suite); Release hands them to the next capture instead.
// JSONL is the buffer's interchange encoding, written by EmitJSONL.
//
// The buffer is what replay-derivation consumes: Derive re-prices the
// recorded pricing-operation sequence through another interconnect and
// reconstructs the run's totals there without re-executing the
// application (see derive.go). A capture that has seen RunEnd is
// immutable: Derive and EmitJSONL take the lock only to open it, and
// walk it side by side.
type MemSink struct {
	mu sync.Mutex

	meta   RunMeta
	ended  bool
	time   sim.Duration
	msgs   int64
	bytes  int64
	queue  sim.Duration
	clocks []sim.Duration

	// blocks[i] holds events [i*blockEvents, (i+1)*blockEvents) of the
	// n captured. After a Reset there may be more blocks than n needs.
	blocks []*block
	n      int
	// readers counts the walks in progress. While there are any, Reset
	// and Release let go of the blocks instead of reusing them.
	readers int

	names   []string
	nameIdx map[string]int32
}

// NewMemSink returns an empty capture buffer.
func NewMemSink() *MemSink {
	return &MemSink{nameIdx: make(map[string]int32)}
}

// Reset clears the buffer for the next run, keeping its blocks so
// steady-state reuse allocates nothing.
func (ms *MemSink) Reset() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.clear()
}

// Release clears the buffer and gives its blocks to the captures that
// come after it.
func (ms *MemSink) Release() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.readers == 0 {
		for _, b := range ms.blocks {
			blockPool.Put(b)
		}
	}
	ms.blocks = nil
	ms.clear()
}

func (ms *MemSink) clear() {
	if ms.readers > 0 {
		ms.blocks = nil
	}
	ms.meta = RunMeta{}
	ms.ended = false
	ms.time, ms.msgs, ms.bytes, ms.queue = 0, 0, 0, 0
	ms.clocks = ms.clocks[:0]
	ms.n = 0
	ms.names = ms.names[:0]
	for k := range ms.nameIdx {
		delete(ms.nameIdx, k)
	}
}

// Len returns the number of captured events.
func (ms *MemSink) Len() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.n
}

// Footprint returns the bytes of event storage the sink holds: whole
// blocks, filled or not.
func (ms *MemSink) Footprint() int64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return int64(len(ms.blocks)) * int64(unsafe.Sizeof(block{}))
}

// Meta returns the run identity recorded by Begin.
func (ms *MemSink) Meta() RunMeta {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.meta
}

// Ended reports whether RunEnd closed the capture (a complete run).
func (ms *MemSink) Ended() bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.ended
}

// Recorded returns the run's recorded simulated time and wire totals.
func (ms *MemSink) Recorded() (time sim.Duration, t Totals) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.time, Totals{Msgs: ms.msgs, Bytes: ms.bytes, Queue: ms.queue}
}

// read opens the ended capture for one walk; the caller must call
// readDone when the walk is over. The clocks and names are copied, the
// events are not: events [0, n) of an ended capture are never written
// again until Reset or Release, and those look at readers first.
func (ms *MemSink) read(what string) (*stream, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.ended {
		return nil, fmt.Errorf("trace: %s on an unfinished capture", what)
	}
	s := &stream{
		meta: ms.meta,
		time: ms.time, msgs: ms.msgs, bytes: ms.bytes, queue: ms.queue,
		clocks: append([]sim.Duration(nil), ms.clocks...),
		names:  append([]string(nil), ms.names...),
		wins:   make([]cols, 0, (ms.n+blockEvents-1)/blockEvents),
	}
	for lo := 0; lo < ms.n; lo += blockEvents {
		s.wins = append(s.wins, ms.blocks[lo>>blockShift].cols(min(blockEvents, ms.n-lo)))
	}
	ms.readers++
	return s, nil
}

func (ms *MemSink) readDone() {
	ms.mu.Lock()
	ms.readers--
	ms.mu.Unlock()
}

func (ms *MemSink) intern(s string) int32 {
	if i, ok := ms.nameIdx[s]; ok {
		return i
	}
	i := int32(len(ms.names))
	ms.names = append(ms.names, s)
	ms.nameIdx[s] = i
	return i
}

func (ms *MemSink) push(op, kind, rkind uint8, a, b, c, nb, rb int32, at, q, rq int64) {
	i := ms.n & (blockEvents - 1)
	bi := ms.n >> blockShift
	if bi == len(ms.blocks) {
		ms.blocks = append(ms.blocks, blockPool.Get().(*block))
	}
	blk := ms.blocks[bi]
	blk.op[i], blk.kind[i], blk.rkind[i] = op, kind, rkind
	blk.a[i], blk.b[i], blk.c[i], blk.nb[i], blk.rb[i] = a, b, c, nb, rb
	blk.at[i], blk.q[i], blk.rq[i] = at, q, rq
	ms.n++
}

// Begin implements Sink.
func (ms *MemSink) Begin(meta RunMeta) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.meta = meta
}

// TraceLeg implements simnet.TraceSink.
func (ms *MemSink) TraceLeg(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLeg, uint8(kind), 0, int32(src), int32(dst), 0, int32(bytes), 0, int64(at), int64(queue), 0)
}

// TraceControl implements simnet.TraceSink.
func (ms *MemSink) TraceControl(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opControl, uint8(kind), 0, int32(src), int32(dst), 0, int32(bytes), 0, int64(at), int64(queue), 0)
}

// TraceExchange implements simnet.TraceSink.
func (ms *MemSink) TraceExchange(reqKind, repKind simnet.MsgKind, src, dst, reqBytes, repBytes int, at sim.Duration, t netmodel.ExchangeTiming) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opExchange, uint8(reqKind), uint8(repKind), int32(src), int32(dst), 0,
		int32(reqBytes), int32(repBytes), int64(at), int64(t.Request.Queue), int64(t.Reply.Queue))
}

// BarrierEnter implements Sink.
func (ms *MemSink) BarrierEnter(p int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opBarrierEnter, 0, 0, int32(p), 0, 0, 0, 0, int64(at), 0, 0)
}

// BarrierLeave implements Sink.
func (ms *MemSink) BarrierLeave(p, episode int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opBarrierLeave, 0, 0, int32(p), int32(episode), 0, 0, 0, int64(at), 0, 0)
}

// LockRequest implements Sink.
func (ms *MemSink) LockRequest(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockRequest, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// LockAcquire implements Sink.
func (ms *MemSink) LockAcquire(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockAcquire, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// LockRelease implements Sink.
func (ms *MemSink) LockRelease(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockRelease, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// FaultBegin implements Sink.
func (ms *MemSink) FaultBegin(p, page, unit int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opFaultBegin, 0, 0, int32(p), int32(unit), int32(page), 0, 0, int64(at), 0, 0)
}

// FaultEnd implements Sink.
func (ms *MemSink) FaultEnd(p, page int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opFaultEnd, 0, 0, int32(p), 0, int32(page), 0, 0, int64(at), 0, 0)
}

// ProtocolSwitch implements Sink.
func (ms *MemSink) ProtocolSwitch(u int, from, to string, phase int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	fi, ti := ms.intern(from), ms.intern(to)
	ms.push(opSwitch, 0, 0, int32(u), int32(phase), 0, fi, ti, 0, 0, 0)
}

// Rehome implements Sink.
func (ms *MemSink) Rehome(u, from, to, bytes int, transfer bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var tr int32
	if transfer {
		tr = 1
	}
	ms.push(opRehome, 0, 0, int32(u), int32(from), int32(to), int32(bytes), tr, 0, 0, 0)
}

// RunEnd implements Sink: closes the capture with the recorded totals
// and every processor's final virtual clock.
func (ms *MemSink) RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.time, ms.msgs, ms.bytes, ms.queue = time, msgs, bytes, queue
	ms.clocks = append(ms.clocks[:0], clocks...)
	ms.ended = true
}

// EmitJSONL writes the ended capture to w as one run: run_start, one
// line per event in capture order, run_end with the recorded totals
// and final clocks. app and dataset label the run where its recorded
// identity leaves them empty, as it does for every engine capture.
// The run's lines are written while holding w's lock, so runs emitted
// by concurrent captures sharing w never interleave; ReadRuns is the
// inverse. It returns w's sticky write error.
func (ms *MemSink) EmitJSONL(w *Writer, app, dataset string) error {
	s, err := ms.read("EmitJSONL")
	if err != nil {
		return err
	}
	defer ms.readDone()
	if s.meta.App == "" {
		s.meta.App = app
	}
	if s.meta.Dataset == "" {
		s.meta.Dataset = dataset
	}
	return s.emitJSONL(w)
}

func (s *stream) emitJSONL(w *Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.beginRun(s.meta)
	for _, ev := range s.wins {
		for i := range ev.op {
			a, b, c := int(ev.a[i]), int(ev.b[i]), int(ev.c[i])
			nb, rb := int(ev.nb[i]), int(ev.rb[i])
			at, q, rq := sim.Duration(ev.at[i]), sim.Duration(ev.q[i]), sim.Duration(ev.rq[i])
			kind := simnet.MsgKind(ev.kind[i]).String()
			var e Event
			switch ev.op[i] {
			case opLeg:
				e = Event{E: EvLeg, K: kind, S: a, D: b, B: nb, At: at, Q: q}
			case opControl:
				e = Event{E: EvControl, K: kind, S: a, D: b, B: nb, At: at, Q: q}
			case opExchange:
				rkind := simnet.MsgKind(ev.rkind[i]).String()
				e = Event{E: EvExchange, K: kind, RK: rkind, S: a, D: b, B: nb, RB: rb, At: at, Q: q, RQ: rq}
			case opBarrierEnter:
				e = Event{E: EvBarrierEnter, P: a, At: at}
			case opBarrierLeave:
				e = Event{E: EvBarrierLeave, P: a, N: b, At: at}
			case opLockRequest:
				e = Event{E: EvLockRequest, P: a, L: b, At: at}
			case opLockAcquire:
				e = Event{E: EvLockAcquire, P: a, L: b, At: at}
			case opLockRelease:
				e = Event{E: EvLockRelease, P: a, L: b, At: at}
			case opFaultBegin:
				e = Event{E: EvFaultBegin, P: a, Pg: c, U: b, At: at}
			case opFaultEnd:
				e = Event{E: EvFaultEnd, P: a, Pg: c, At: at}
			case opSwitch:
				e = Event{E: EvSwitch, U: a, FromName: s.names[nb], ToName: s.names[rb], N: b}
			case opRehome:
				e = Event{E: EvRehome, U: a, FromHome: b, ToHome: c, B: nb, Transfer: rb != 0}
			}
			e.R = r
			w.emit(&e)
		}
	}
	w.emit(&Event{E: EvRunEnd, R: r, Time: s.time, Msgs: s.msgs, Bytes: s.bytes, Queue: s.queue, Clocks: s.clocks})
	return w.err
}
