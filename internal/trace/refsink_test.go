package trace

import (
	"fmt"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// BlockEvents is the block size, for tests that build captures of
// exactly one block and one block ± 1.
const BlockEvents = blockEvents

var _ Sink = (*RefSink)(nil)

// RefSink is the capture buffer as it was before events moved into
// fixed-size blocks: eleven append-grown columns, the storage and every
// Sink method verbatim. It is the reference the block layout is checked
// against — same events in, same Len, Recorded, EmitJSONL bytes and
// Derive results out. Its readers are the package's own: the flat
// columns are handed to them as a stream of one window.
type RefSink struct {
	mu sync.Mutex

	meta   RunMeta
	began  bool
	ended  bool
	time   sim.Duration
	msgs   int64
	bytes  int64
	queue  sim.Duration
	clocks []sim.Duration

	// Struct-of-arrays event columns, one entry per event. a/b/c are
	// generic integer operands: src/dst for messages, proc/episode/lock
	// /page/unit for lifecycle events, from/to for rehomes.
	op    []uint8
	kind  []uint8 // simnet.MsgKind (request kind on exchanges)
	rkind []uint8 // reply kind (exchanges only)
	a     []int32
	b     []int32
	c     []int32
	nb    []int32 // payload bytes (request bytes on exchanges)
	rb    []int32 // reply payload bytes (exchanges only)
	at    []int64 // sender's virtual clock at send / lifecycle clock
	q     []int64 // recorded queue delay (request leg on exchanges)
	rq    []int64 // recorded reply-leg queue delay (exchanges only)

	// Interned strings (protocol names on switch events).
	names   []string
	nameIdx map[string]int32
}

// NewRefSink returns an empty reference buffer.
func NewRefSink() *RefSink {
	return &RefSink{nameIdx: make(map[string]int32)}
}

// Reset clears the buffer for the next run, keeping every column's
// capacity so steady-state reuse allocates nothing.
func (ms *RefSink) Reset() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.meta = RunMeta{}
	ms.began, ms.ended = false, false
	ms.time, ms.msgs, ms.bytes, ms.queue = 0, 0, 0, 0
	ms.clocks = ms.clocks[:0]
	ms.op = ms.op[:0]
	ms.kind, ms.rkind = ms.kind[:0], ms.rkind[:0]
	ms.a, ms.b, ms.c = ms.a[:0], ms.b[:0], ms.c[:0]
	ms.nb, ms.rb = ms.nb[:0], ms.rb[:0]
	ms.at, ms.q, ms.rq = ms.at[:0], ms.q[:0], ms.rq[:0]
	ms.names = ms.names[:0]
	for k := range ms.nameIdx {
		delete(ms.nameIdx, k)
	}
}

// Len returns the number of captured events.
func (ms *RefSink) Len() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.op)
}

// Meta returns the run identity recorded by Begin.
func (ms *RefSink) Meta() RunMeta {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.meta
}

// Ended reports whether RunEnd closed the capture (a complete run).
func (ms *RefSink) Ended() bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.ended
}

// Recorded returns the run's recorded simulated time and wire totals.
func (ms *RefSink) Recorded() (time sim.Duration, t Totals) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.time, Totals{Msgs: ms.msgs, Bytes: ms.bytes, Queue: ms.queue}
}

func (ms *RefSink) intern(s string) int32 {
	if i, ok := ms.nameIdx[s]; ok {
		return i
	}
	i := int32(len(ms.names))
	ms.names = append(ms.names, s)
	ms.nameIdx[s] = i
	return i
}

func (ms *RefSink) push(op, kind, rkind uint8, a, b, c, nb, rb int32, at, q, rq int64) {
	ms.op = append(ms.op, op)
	ms.kind = append(ms.kind, kind)
	ms.rkind = append(ms.rkind, rkind)
	ms.a = append(ms.a, a)
	ms.b = append(ms.b, b)
	ms.c = append(ms.c, c)
	ms.nb = append(ms.nb, nb)
	ms.rb = append(ms.rb, rb)
	ms.at = append(ms.at, at)
	ms.q = append(ms.q, q)
	ms.rq = append(ms.rq, rq)
}

// Begin implements Sink.
func (ms *RefSink) Begin(meta RunMeta) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.meta = meta
	ms.began = true
}

// TraceLeg implements simnet.TraceSink.
func (ms *RefSink) TraceLeg(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLeg, uint8(kind), 0, int32(src), int32(dst), 0, int32(bytes), 0, int64(at), int64(queue), 0)
}

// TraceControl implements simnet.TraceSink.
func (ms *RefSink) TraceControl(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opControl, uint8(kind), 0, int32(src), int32(dst), 0, int32(bytes), 0, int64(at), int64(queue), 0)
}

// TraceExchange implements simnet.TraceSink.
func (ms *RefSink) TraceExchange(reqKind, repKind simnet.MsgKind, src, dst, reqBytes, repBytes int, at sim.Duration, t netmodel.ExchangeTiming) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opExchange, uint8(reqKind), uint8(repKind), int32(src), int32(dst), 0,
		int32(reqBytes), int32(repBytes), int64(at), int64(t.Request.Queue), int64(t.Reply.Queue))
}

// BarrierEnter implements Sink.
func (ms *RefSink) BarrierEnter(p int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opBarrierEnter, 0, 0, int32(p), 0, 0, 0, 0, int64(at), 0, 0)
}

// BarrierLeave implements Sink.
func (ms *RefSink) BarrierLeave(p, episode int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opBarrierLeave, 0, 0, int32(p), int32(episode), 0, 0, 0, int64(at), 0, 0)
}

// LockRequest implements Sink.
func (ms *RefSink) LockRequest(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockRequest, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// LockAcquire implements Sink.
func (ms *RefSink) LockAcquire(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockAcquire, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// LockRelease implements Sink.
func (ms *RefSink) LockRelease(p, l int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opLockRelease, 0, 0, int32(p), int32(l), 0, 0, 0, int64(at), 0, 0)
}

// FaultBegin implements Sink.
func (ms *RefSink) FaultBegin(p, page, unit int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opFaultBegin, 0, 0, int32(p), int32(unit), int32(page), 0, 0, int64(at), 0, 0)
}

// FaultEnd implements Sink.
func (ms *RefSink) FaultEnd(p, page int, at sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.push(opFaultEnd, 0, 0, int32(p), 0, int32(page), 0, 0, int64(at), 0, 0)
}

// ProtocolSwitch implements Sink.
func (ms *RefSink) ProtocolSwitch(u int, from, to string, phase int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	fi, ti := ms.intern(from), ms.intern(to)
	ms.push(opSwitch, 0, 0, int32(u), int32(phase), 0, fi, ti, 0, 0, 0)
}

// Rehome implements Sink.
func (ms *RefSink) Rehome(u, from, to, bytes int, transfer bool) {
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
func (ms *RefSink) RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.time, ms.msgs, ms.bytes, ms.queue = time, msgs, bytes, queue
	ms.clocks = append(ms.clocks[:0], clocks...)
	ms.ended = true
}

// stream hands the flat columns to the package's readers.
func (ms *RefSink) stream(what string) (*stream, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.ended {
		return nil, fmt.Errorf("trace: %s on an unfinished capture", what)
	}
	s := &stream{
		meta: ms.meta,
		time: ms.time, msgs: ms.msgs, bytes: ms.bytes, queue: ms.queue,
		clocks: ms.clocks, names: ms.names,
	}
	if len(ms.op) > 0 {
		s.wins = []cols{{
			op: ms.op, kind: ms.kind, rkind: ms.rkind,
			a: ms.a, b: ms.b, c: ms.c, nb: ms.nb, rb: ms.rb,
			at: ms.at, q: ms.q, rq: ms.rq,
		}}
	}
	return s, nil
}

// Derive re-prices the reference capture.
func (ms *RefSink) Derive(network string) (*Derived, error) {
	s, err := ms.stream("derive")
	if err != nil {
		return nil, err
	}
	return s.derive(network)
}

// EmitJSONL writes the reference capture out as one run.
func (ms *RefSink) EmitJSONL(w *Writer) error {
	s, err := ms.stream("EmitJSONL")
	if err != nil {
		return err
	}
	return s.emitJSONL(w)
}
