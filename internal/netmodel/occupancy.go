package netmodel

import (
	"sync"

	"repro/internal/sim"
)

// Params decomposes a leg's fixed cost into the parts that matter under
// contention: per-leg software overhead at each end (CPU time, never
// shared), the wire/fabric propagation latency, and the transmission
// time (fixed frame cost + per-byte), which is what occupies a shared
// resource. The decomposition is calibrated so an *uncontended* leg
// costs exactly what the ideal model charges:
//
//	SendOverhead + FrameTime + Propagation + RecvOverhead = MessageLeg
type Params struct {
	SendOverhead sim.Duration // sender-side software overhead per leg
	RecvOverhead sim.Duration // receiver-side software overhead per leg
	Propagation  sim.Duration // uncontended wire/fabric latency
	FrameTime    sim.Duration // fixed transmission time per frame
	PerByte      sim.Duration // transmission time per payload byte
	Service      sim.Duration // remote service between request and reply
}

// ParamsFromCost splits the calibrated cost model into occupancy
// parameters. The paper's platform is dominated by per-message software
// overhead (§5.1), so the overheads take 4/5 of the fixed leg cost and
// the wire (frame + propagation) the remaining 1/5.
func ParamsFromCost(c sim.CostModel) Params {
	send := 2 * c.MessageLeg / 5
	recv := 2 * c.MessageLeg / 5
	frame := c.MessageLeg / 10
	return Params{
		SendOverhead: send,
		RecvOverhead: recv,
		FrameTime:    frame,
		Propagation:  c.MessageLeg - send - recv - frame,
		PerByte:      c.PerByte,
		Service:      c.RequestService,
	}
}

// txTime is the transmission time of one frame carrying bytes of
// payload — the duration it occupies a shared resource.
func (p Params) txTime(bytes int) sim.Duration {
	return p.FrameTime + sim.Duration(bytes)*p.PerByte
}

// exchange composes a request/reply from two legs priced by m.Leg,
// spacing the reply by the request's arrival plus remote service.
func exchange(m Model, p Params, src, dst, reqBytes, replyBytes int, at sim.Duration) ExchangeTiming {
	req := m.Leg(src, dst, reqBytes, at)
	rep := m.Leg(dst, src, replyBytes, at+req.Total+p.Service)
	return ExchangeTiming{Request: req, Service: p.Service, Reply: rep}
}

// interval is one booked busy period [start, end) of a serial resource.
type interval struct {
	start, end sim.Duration
}

const (
	maxIntervals = 4096 // busy periods one resource remembers
	blockCap     = 64   // busy periods per block: an insert shifts at most 1 KB
)

// block is one fixed-capacity run of a timeline's busy periods, live in
// iv[lo:hi]; lo moves only when a block's first period goes. next links
// the blocks of the free list.
type block struct {
	next   *block
	lo, hi int
	iv     [blockCap]interval
}

// timeline tracks when a serial resource (the bus, one NIC port) is
// busy, in virtual time. Reservations arrive out of virtual-time order
// — processor clocks are skewed, and the network's pricing lock
// serializes them in delivery order — so the earliest idle gap at or
// after the requested time is searched, rather than ratcheting a single
// high-water mark: a frame departing logically earlier than one
// already booked slots into the idle time before it instead of
// spuriously queuing behind the future. Queuing delay therefore
// reflects genuine overlap of transmissions in virtual time.
//
// The busy periods are kept sorted, disjoint and never exactly
// touching, as an ordered sequence of non-empty blocks, so a
// reservation far from the tail moves one block's worth of memory
// instead of everything after it. Blocks come from a slab the timeline
// owns and go back to its free list when they empty or on reset.
//
// The list is capped: when it overflows, the earliest busy period is
// forgotten (a frame sent at a long-past virtual time may then see
// slightly *less* contention than it should — the safe direction for a
// model whose floor is the uncontended ideal cost).
type timeline struct {
	order []*block // non-empty blocks in time order
	free  *block   // slab blocks not in order
	slab  int      // blocks allocated so far
	n     int      // busy periods held
}

// reserve books a slot of length tx at the earliest idle time at or
// after ready and returns the slot's start.
func (t *timeline) reserve(ready, tx sim.Duration) sim.Duration {
	if tx <= 0 {
		return ready
	}
	// Skip busy periods that end at or before ready; they cannot
	// constrain the slot. Ends are sorted, so first find the block whose
	// last period ends after ready, then the period within it.
	bi, si := len(t.order), 0
	if bi > 0 {
		if last := t.order[bi-1]; last.iv[last.hi-1].end > ready {
			lo, hi := 0, bi-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b := t.order[mid]; b.iv[b.hi-1].end > ready {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			bi = lo
			b := t.order[bi]
			lo, hi = b.lo, b.hi-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b.iv[mid].end > ready {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			si = lo
		}
	}
	start := ready
walk:
	for bi < len(t.order) {
		b := t.order[bi]
		for ; si < b.hi; si++ {
			if start+tx <= b.iv[si].start {
				break walk // fits in the gap before this busy period
			}
			if e := b.iv[si].end; e > start {
				start = e
			}
		}
		if bi++; bi < len(t.order) {
			si = t.order[bi].lo
		}
	}
	// Book [start, start+tx) before position (bi, si), coalescing with
	// neighbors it touches exactly (queued frames pack back-to-back, so
	// bursts collapse into single busy periods).
	var prev, next *interval
	if bi < len(t.order) {
		b := t.order[bi]
		next = &b.iv[si]
		if si > b.lo {
			prev = &b.iv[si-1]
		}
	}
	if prev == nil && bi > 0 {
		b := t.order[bi-1]
		prev = &b.iv[b.hi-1]
	}
	end := start + tx
	touchPrev := prev != nil && prev.end == start
	touchNext := next != nil && next.start == end
	switch {
	case touchPrev && touchNext:
		prev.end = next.end
		t.remove(bi, si)
	case touchPrev:
		prev.end = end
	case touchNext:
		next.start = start
	default:
		t.insert(bi, si, interval{start: start, end: end})
		if t.n > maxIntervals {
			t.remove(0, t.order[0].lo)
		}
	}
	return start
}

// insert places v before position (bi, si); bi == len(t.order) appends.
func (t *timeline) insert(bi, si int, v interval) {
	t.n++
	if bi == len(t.order) {
		// Past every busy period: extend the last block, or open a new
		// one rather than split it, so in-order streams fill blocks.
		if bi > 0 && t.order[bi-1].hi < blockCap {
			b := t.order[bi-1]
			b.iv[b.hi] = v
			b.hi++
			return
		}
		b := t.newBlock()
		b.iv[0], b.hi = v, 1
		t.order = append(t.order, b)
		return
	}
	b := t.order[bi]
	if b.hi == blockCap {
		if b.lo > 0 { // room was freed at the head: close it up
			copy(b.iv[:], b.iv[b.lo:b.hi])
			si -= b.lo
			b.lo, b.hi = 0, b.hi-b.lo
		} else { // full: move the upper half to a new block after this one
			const half = blockCap / 2
			nb := t.newBlock()
			nb.hi = copy(nb.iv[:], b.iv[half:])
			b.hi = half
			t.order = append(t.order, nil)
			copy(t.order[bi+2:], t.order[bi+1:])
			t.order[bi+1] = nb
			if si > half {
				b, si = nb, si-half
			}
		}
	}
	copy(b.iv[si+1:b.hi+1], b.iv[si:b.hi])
	b.iv[si] = v
	b.hi++
}

// remove deletes the busy period at position (bi, si), recycling the
// block if that empties it. The head of a block goes in O(1).
func (t *timeline) remove(bi, si int) {
	t.n--
	b := t.order[bi]
	if si == b.lo {
		b.lo++
	} else {
		copy(b.iv[si:], b.iv[si+1:b.hi])
		b.hi--
	}
	if b.lo == b.hi {
		copy(t.order[bi:], t.order[bi+1:])
		t.order = t.order[:len(t.order)-1]
		b.next, t.free = t.free, b
	}
}

// newBlock takes an empty block off the free list, doubling the slab
// when the list is empty.
func (t *timeline) newBlock() *block {
	if t.free == nil {
		grow := t.slab
		if grow == 0 {
			grow = 1
		}
		chunk := make([]block, grow)
		for i := range chunk {
			chunk[i].next, t.free = t.free, &chunk[i]
		}
		t.slab += grow
	}
	b := t.free
	t.free = b.next
	b.lo, b.hi = 0, 0
	return b
}

func (t *timeline) reset() {
	for _, b := range t.order {
		b.next, t.free = t.free, b
	}
	t.order = t.order[:0]
	t.n = 0
}

// bus models a shared-medium Ethernet: one global serialization
// resource. A frame may start transmitting only when the medium is
// idle, so simultaneous legs queue behind each other no matter which
// processors they connect.
type bus struct {
	name string
	p    Params

	mu   sync.Mutex
	wire timeline
}

func (b *bus) Name() string { return b.name }

func (b *bus) Leg(src, dst, bytes int, at sim.Duration) Timing {
	ready := at + b.p.SendOverhead
	tx := b.p.txTime(bytes)
	b.mu.Lock()
	start := b.wire.reserve(ready, tx)
	b.mu.Unlock()
	queue := start - ready
	return Timing{
		Total: b.p.SendOverhead + queue + tx + b.p.Propagation + b.p.RecvOverhead,
		Queue: queue,
	}
}

func (b *bus) Exchange(src, dst, reqBytes, replyBytes int, at sim.Duration) ExchangeTiming {
	return exchange(b, b.p, src, dst, reqBytes, replyBytes, at)
}

func (b *bus) Reset() {
	b.mu.Lock()
	b.wire.reset()
	b.mu.Unlock()
}

// switched models a full-bisection switch (the paper's actual
// platform): contention exists only at the endpoints' NIC ports. A leg
// occupies its sender's egress port for the transmission time; the
// frame's head reaches the destination after the propagation latency
// (cut-through, so an uncontended leg costs exactly the ideal leg) and
// then occupies the receiver's ingress port for the transmission time.
// Disjoint src/dst pairs never interfere.
type switched struct {
	name string
	p    Params

	mu      sync.Mutex
	egress  []timeline // NIC send port busy periods, by processor
	ingress []timeline // NIC receive port busy periods, by processor
}

func newSwitched(name string, p Params) *switched {
	return &switched{name: name, p: p}
}

// port returns processor id's timeline, growing the table to reach it.
// Callers hand in engine processor ids; captures read from outside are
// range-checked by internal/trace before they are priced.
func port(ports *[]timeline, id int) *timeline {
	if id >= len(*ports) {
		*ports = append(*ports, make([]timeline, id+1-len(*ports))...)
	}
	return &(*ports)[id]
}

func (s *switched) Name() string { return s.name }

func (s *switched) Leg(src, dst, bytes int, at sim.Duration) Timing {
	ready := at + s.p.SendOverhead
	tx := s.p.txTime(bytes)
	s.mu.Lock()
	eStart := port(&s.egress, src).reserve(ready, tx)
	arrive := eStart + s.p.Propagation // head of frame, cut-through
	iStart := port(&s.ingress, dst).reserve(arrive, tx)
	s.mu.Unlock()
	queue := (eStart - ready) + (iStart - arrive)
	return Timing{
		Total: s.p.SendOverhead + queue + tx + s.p.Propagation + s.p.RecvOverhead,
		Queue: queue,
	}
}

func (s *switched) Exchange(src, dst, reqBytes, replyBytes int, at sim.Duration) ExchangeTiming {
	return exchange(s, s.p, src, dst, reqBytes, replyBytes, at)
}

func (s *switched) Reset() {
	s.mu.Lock()
	for i := range s.egress {
		s.egress[i].reset()
	}
	for i := range s.ingress {
		s.ingress[i].reset()
	}
	s.mu.Unlock()
}

// Scale parameterizes a preset interconnect relative to the calibrated
// base platform: Bandwidth multiplies the wire rate (dividing the
// per-byte time), Overhead divides the per-leg software overheads and
// the remote service cost, and Latency divides the fabric latency and
// frame cost. Every factor below 1 is treated as 1 (presets never
// model a slower network than the calibration).
type Scale struct {
	Bandwidth float64
	Overhead  float64
	Latency   float64
}

func (s Scale) norm() Scale {
	if s.Bandwidth < 1 {
		s.Bandwidth = 1
	}
	if s.Overhead < 1 {
		s.Overhead = 1
	}
	if s.Latency < 1 {
		s.Latency = 1
	}
	return s
}

// Preset returns a factory for a switch-topology model whose parameters
// scale the calibrated base platform — the "what if the cluster ran on
// X" family (atm: 155 Mbps, same software stack; myrinet: 1.28 Gbps
// with user-level messaging; 10gbe: 10 Gbps with a modern kernel path).
func Preset(name string, scale Scale) func(sim.CostModel) Model {
	scale = scale.norm()
	return func(c sim.CostModel) Model {
		p := ParamsFromCost(c)
		p.PerByte = sim.Duration(float64(p.PerByte) / scale.Bandwidth)
		p.SendOverhead = sim.Duration(float64(p.SendOverhead) / scale.Overhead)
		p.RecvOverhead = sim.Duration(float64(p.RecvOverhead) / scale.Overhead)
		p.Service = sim.Duration(float64(p.Service) / scale.Overhead)
		p.Propagation = sim.Duration(float64(p.Propagation) / scale.Latency)
		p.FrameTime = sim.Duration(float64(p.FrameTime) / scale.Latency)
		return newSwitched(name, p)
	}
}
