package netmodel

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refTimeline is the flat sorted-slice timeline this package priced
// with before the block structure, kept verbatim as the reference the
// blocks are checked against: same starts, same busy periods, for every
// call sequence.
type refTimeline struct {
	iv []interval
}

func (t *refTimeline) reserve(ready, tx sim.Duration) sim.Duration {
	if tx <= 0 {
		return ready
	}
	// Skip busy periods that end at or before ready; they cannot
	// constrain the slot.
	i := sort.Search(len(t.iv), func(i int) bool { return t.iv[i].end > ready })
	start := ready
	for i < len(t.iv) {
		if start+tx <= t.iv[i].start {
			break // fits in the gap before busy period i
		}
		if e := t.iv[i].end; e > start {
			start = e
		}
		i++
	}
	// Insert [start, start+tx) before index i, coalescing with
	// neighbors it touches exactly (queued frames pack back-to-back,
	// so bursts collapse into single busy periods).
	lo, hi := i, i
	merged := interval{start: start, end: start + tx}
	if lo > 0 && t.iv[lo-1].end == merged.start {
		lo--
		merged.start = t.iv[lo].start
	}
	if hi < len(t.iv) && t.iv[hi].start == merged.end {
		merged.end = t.iv[hi].end
		hi++
	}
	switch {
	case hi == lo: // pure insert
		t.iv = append(t.iv, interval{})
		copy(t.iv[lo+1:], t.iv[lo:])
		t.iv[lo] = merged
	case hi == lo+1: // replace one
		t.iv[lo] = merged
	default: // replace several
		t.iv[lo] = merged
		t.iv = append(t.iv[:lo+1], t.iv[hi:]...)
	}
	if len(t.iv) > maxIntervals {
		t.iv = t.iv[1:]
	}
	return start
}

func (t *refTimeline) reset() { t.iv = t.iv[:0] }

// intervals flattens the blocks and checks what the structure promises
// about itself: no empty block in the order, live ranges inside the
// block, the count right, every block accounted for.
func (t *timeline) intervals(tb testing.TB) []interval {
	tb.Helper()
	out := make([]interval, 0, t.n)
	for i, b := range t.order {
		if b.lo < 0 || b.lo >= b.hi || b.hi > blockCap {
			tb.Fatalf("block %d of %d holds [%d,%d)", i, len(t.order), b.lo, b.hi)
		}
		out = append(out, b.iv[b.lo:b.hi]...)
	}
	if len(out) != t.n {
		tb.Fatalf("timeline counts %d busy periods, holds %d", t.n, len(out))
	}
	free := 0
	for b := t.free; b != nil; b = b.next {
		free++
	}
	if len(t.order)+free != t.slab {
		tb.Fatalf("%d blocks in order + %d free != %d allocated", len(t.order), free, t.slab)
	}
	return out
}

// A stream program is a byte string: one shape byte (how many senders,
// how far apart their sends), then three bytes per step. The same
// decoder runs the seeded streams of TestTimelineMatchesReference and
// whatever FuzzTimelineReserve invents.
const (
	opSend   = 0 // and 1, 2: one frame at the sender's advanced clock
	opBurst  = 3 // several frames at one clock: they queue and coalesce
	opAfter  = 4 // a frame starting exactly where the last booking ended
	opBefore = 5 // a frame ending exactly where the last booking started
	opPlug   = 6 // two bookings one frame apart, then the frame between
	opOdd    = 7 // reset, or a frame of no or negative length
)

var frameBytes = [4]int{0, 64, 4096, 4 * 4096}

// runProgram drives the block timeline and the reference through the
// decoded stream, failing on the first start that differs and comparing
// the whole busy-period list every checkEvery steps and at the end. It
// reports how many steps ran with the list at its cap.
func runProgram(tb testing.TB, data []byte, checkEvery int) (atCap int) {
	tb.Helper()
	if len(data) == 0 {
		return 0
	}
	p := ParamsFromCost(sim.DefaultCostModel())
	senders := 16 + int(data[0])%241
	think := sim.Microsecond << (data[0] % 11)
	clocks := make([]sim.Duration, senders)
	for i := range clocks { // skewed against each other from the start
		clocks[i] = sim.Second + sim.Duration(i)*40*think
	}
	var tl timeline
	var ref refTimeline
	var lastStart, lastEnd sim.Duration
	step := 0
	reserve := func(ready, tx sim.Duration) {
		tb.Helper()
		got, want := tl.reserve(ready, tx), ref.reserve(ready, tx)
		if got != want {
			tb.Fatalf("step %d: reserve(%d, %d) = %d, reference %d", step, ready, tx, got, want)
		}
		if tx > 0 {
			lastStart, lastEnd = got, got+tx
		}
	}
	compare := func() {
		tb.Helper()
		got := tl.intervals(tb)
		if len(got) != len(ref.iv) {
			tb.Fatalf("step %d: %d busy periods, reference %d", step, len(got), len(ref.iv))
		}
		for i := range got {
			if got[i] != ref.iv[i] {
				tb.Fatalf("step %d: busy period %d = %v, reference %v", step, i, got[i], ref.iv[i])
			}
		}
	}
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		op, who, arg := data[0], int(data[1])%senders, sim.Duration(data[2])
		tx := p.txTime(frameBytes[(op>>3)%4])
		step++
		switch op % 8 {
		case opBurst:
			clocks[who] += arg * think
			for k := sim.Duration(0); k <= arg%8; k++ {
				reserve(clocks[who], tx)
			}
		case opAfter:
			reserve(lastEnd, tx)
		case opBefore:
			reserve(lastStart-tx, tx)
		case opPlug:
			far := clocks[who] + (arg+1)*sim.Millisecond
			reserve(far, tx)
			reserve(far+2*tx, tx)
			reserve(far+tx, tx)
		case opOdd:
			switch {
			case arg == 0:
				tl.reset()
				ref.reset()
			case arg < 128:
				reserve(clocks[who], 0)
			default:
				reserve(clocks[who], -tx)
			}
		default:
			clocks[who] += arg * think
			reserve(clocks[who], tx)
		}
		if len(ref.iv) == maxIntervals {
			atCap++
		}
		if step%checkEvery == 0 {
			compare()
		}
	}
	compare()
	return atCap
}

// genProgram writes a stream shaped like what the engine sends a port:
// per-sender monotone clocks, mostly single frames, bursts, exact
// touches on either side and both, frames of no length, and a rare
// reset. shape picks the sender count and how sparse the sends are.
func genProgram(seed int64, shape byte, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1, 1+3*steps)
	data[0] = shape
	for i := 0; i < steps; i++ {
		var op byte
		switch r := rng.Intn(100); {
		case r < 70:
			op = opSend
		case r < 80:
			op = opBurst
		case r < 86:
			op = opAfter
		case r < 92:
			op = opBefore
		case r < 98:
			op = opPlug
		default:
			op = opOdd
		}
		op |= byte(rng.Intn(4)) << 3
		arg := byte(1 + rng.Intn(255))
		if op%8 == opOdd && rng.Intn(200) == 0 {
			arg = 0 // reset mid-stream
		}
		data = append(data, op, byte(rng.Intn(256)), arg)
	}
	return data
}

// streamShapes are the shape bytes of the seeded streams: 16 to 256
// senders, from back-to-back (everything coalesces) to so sparse that
// little does and the list sits at its cap.
var streamShapes = []byte{0, 241, 5, 10, 48, 53, 240, 230}

// TestTimelineMatchesReference holds the block timeline to the exact
// contract: on streams shaped like the workload it returns the starts
// and leaves the busy periods the flat reference does, through gap
// filling, coalescing on either side and both, zero-length frames,
// forgetting at the cap, and resets.
func TestTimelineMatchesReference(t *testing.T) {
	atCap := 0
	for i, shape := range streamShapes {
		atCap += runProgram(t, genProgram(int64(i+1), shape, 20000), 7)
	}
	if atCap < 10000 {
		t.Fatalf("only %d steps ran with a full list: forgetting is barely covered", atCap)
	}
}

// FuzzTimelineReserve lets the fuzzer write the stream. Seeds are the
// generator's own output, cut short so mutation stays cheap, plus one
// long enough to reach the cap.
func FuzzTimelineReserve(f *testing.F) {
	for i, shape := range streamShapes {
		f.Add(genProgram(int64(i+1), shape, 300))
	}
	f.Add(genProgram(99, 10, 6000))
	f.Fuzz(func(t *testing.T, data []byte) {
		runProgram(t, data, 64)
	})
}

type recordedSend struct {
	src, dst int
	at       sim.Duration
	bytes    int
}

// recordedStream is a stream of the shape net-sweep's captures have at
// one port: 16 senders, each clock monotone, skewed against the others
// by up to 600 ms (some 2400 busy periods), sparse enough that the list
// sits at its cap. Times repeat every span, so a benchmark can run it
// for any b.N by shifting each pass.
func recordedStream(n int) (sends []recordedSend, span sim.Duration) {
	const senders = 16
	rng := rand.New(rand.NewSource(42))
	var clocks [senders]sim.Duration
	for i := range clocks {
		clocks[i] = sim.Duration(i) * 40 * sim.Millisecond
	}
	base := clocks
	sends = make([]recordedSend, n)
	for i := range sends {
		s := rng.Intn(senders)
		clocks[s] += sim.Duration(2+rng.Intn(5)) * sim.Millisecond
		bytes := 64
		if rng.Intn(4) == 0 {
			bytes = 4096
		}
		sends[i] = recordedSend{src: s, dst: (s + 1 + rng.Intn(senders-1)) % senders, at: clocks[s], bytes: bytes}
	}
	for i := range clocks {
		span = sim.MaxClock(span, clocks[i]-base[i])
	}
	return sends, span
}

var benchSink sim.Duration

func BenchmarkTimelineReserve(b *testing.B) {
	p := ParamsFromCost(sim.DefaultCostModel())
	sends, span := recordedStream(1 << 15)
	run := func(b *testing.B, reserve func(ready, tx sim.Duration) sim.Duration) {
		pass := func(shift sim.Duration, n int) {
			for i := 0; i < n; i++ {
				s := &sends[i%len(sends)]
				benchSink = reserve(s.at+shift+sim.Duration(i/len(sends))*span, p.txTime(s.bytes))
			}
		}
		pass(0, len(sends)) // fill to the cap
		b.ReportAllocs()
		b.ResetTimer()
		pass(span, b.N)
	}
	b.Run("blocks", func(b *testing.B) { run(b, new(timeline).reserve) })
	b.Run("reference", func(b *testing.B) { run(b, new(refTimeline).reserve) })
}

func BenchmarkSwitchedExchange(b *testing.B) {
	sends, span := recordedStream(1 << 15)
	m := mustNew(b, "switch")
	pass := func(shift sim.Duration, n int) {
		for i := 0; i < n; i++ {
			s := &sends[i%len(sends)]
			benchSink = m.Exchange(s.src, s.dst, 32, s.bytes, s.at+shift+sim.Duration(i/len(sends))*span).Total()
		}
	}
	// Each of the 32 ports sees a sixteenth of the stream's legs:
	// several passes put every list at its cap.
	pass(0, 4*len(sends))
	b.ReportAllocs()
	b.ResetTimer()
	pass(4*span, b.N)
}

// TestAllocBudgetTimelineReserve pins the pricing path at zero
// allocations once the slab has grown: a reservation on a list at its
// cap recycles the blocks forgetting empties.
func TestAllocBudgetTimelineReserve(t *testing.T) {
	p := ParamsFromCost(sim.DefaultCostModel())
	sends, span := recordedStream(1 << 15)
	var tl timeline
	i := 0
	next := func() {
		s := &sends[i%len(sends)]
		tl.reserve(s.at+sim.Duration(i/len(sends))*span, p.txTime(s.bytes))
		i++
	}
	for i < 2*len(sends) {
		next()
	}
	if tl.n != maxIntervals {
		t.Fatalf("warm-up left %d busy periods, want the cap %d", tl.n, maxIntervals)
	}
	if allocs := testing.AllocsPerRun(len(sends), next); allocs != 0 {
		t.Errorf("reserve on a warmed timeline: %v allocs/op, want 0", allocs)
	}
}

// TestAllocBudgetModelReset pins slab reuse: Reset hands every block
// back to its timeline's free list, so re-pricing the same stream
// allocates nothing.
func TestAllocBudgetModelReset(t *testing.T) {
	sends, _ := recordedStream(1 << 15)
	for _, name := range []string{"bus", "switch"} {
		m := mustNew(t, name)
		reprice := func() {
			m.Reset()
			for i := range sends {
				s := &sends[i]
				m.Exchange(s.src, s.dst, 32, s.bytes, s.at)
			}
		}
		reprice()
		if allocs := testing.AllocsPerRun(3, reprice); allocs != 0 {
			t.Errorf("%s: Reset + re-pricing the same stream: %v allocs, want 0", name, allocs)
		}
	}
}
