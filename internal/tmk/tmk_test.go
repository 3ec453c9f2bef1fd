package tmk

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/registry"
)

// mustSystem builds a system from a config that must be valid.
func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem(%+v): %v", cfg, err)
	}
	return s
}

// run builds a system and executes body on every processor.
func run(t *testing.T, cfg Config, body func(p *Proc)) *Result {
	t.Helper()
	cfg.Collect = true
	return mustSystem(t, cfg).Run(body)
}

func wordAddr(page, word int) mem.Addr {
	return mem.PageBase(page) + word*mem.WordSize
}

func TestConfigDefaults(t *testing.T) {
	s := mustSystem(t, Config{SegmentBytes: 100})
	cfg := s.Config()
	if cfg.Procs != 8 || cfg.UnitPages != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if s.SegmentBytes() != mem.PageSize {
		t.Fatalf("segment = %d", s.SegmentBytes())
	}
}

// Resolve canonicalizes every axis name the same way (trim, lowercase,
// empty → default), is idempotent, and names the offending field — in a
// service spec's words — when it rejects a value, listing the known
// names for an unknown one.
func TestResolve(t *testing.T) {
	for in, want := range map[string]string{" Home ": "home", "HOME": "home", "": "homeless"} {
		got, err := Config{Protocol: in}.Resolve()
		if err != nil || got.Protocol != want {
			t.Errorf("Resolve(Protocol %q) = %q, %v; want %q", in, got.Protocol, err, want)
		}
	}
	r, err := Config{Network: " Bus", Placement: "FirstTouch", Scale: "DENSE", Barrier: "Tree"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Network != "bus" || r.Placement != "firsttouch" || r.Scale != ScaleDense || r.Barrier != "tree" ||
		r.BarrierRadix != DefaultBarrierRadix || r.Procs != 8 {
		t.Fatalf("Resolve = %+v", r)
	}
	if again, err := r.Resolve(); err != nil || again != r {
		t.Fatalf("Resolve is not idempotent: %+v, %v", again, err)
	}

	for _, tc := range []struct {
		cfg   Config
		field string
		known string // a name the error must list, if any
	}{
		{Config{Protocol: "bogus"}, "protocol", "homeless"},
		{Config{Network: "token-ring"}, "network", "switch"},
		{Config{Placement: "nearest"}, "placement", "firsttouch"},
		{Config{Scale: "medium"}, "scale", "sparse"},
		{Config{Barrier: "butterfly"}, "barrier", "central"},
		{Config{Barrier: "tree", BarrierRadix: 1}, "barrier_radix", ""},
		{Config{BarrierRadix: -1}, "barrier_radix", ""},
		{Config{Dynamic: true, UnitPages: 2}, "unit_pages", ""},
	} {
		_, err := tc.cfg.Resolve()
		var re *registry.Error
		if !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("Resolve(%+v) = %v, want an error naming %s", tc.cfg, err, tc.field)
			continue
		}
		if !strings.Contains(re.Msg, tc.known) {
			t.Errorf("Resolve(%+v): %q does not list %q", tc.cfg, re.Msg, tc.known)
		}
	}
}

func TestDynamicRequiresUnitOne(t *testing.T) {
	if _, err := NewSystem(Config{Dynamic: true, UnitPages: 2}); err == nil {
		t.Fatal("expected error for dynamic aggregation with UnitPages > 1")
	}
}

func TestUnknownNetworkIsError(t *testing.T) {
	if _, err := NewSystem(Config{Network: "token-ring"}); err == nil {
		t.Fatal("expected error for unknown network model")
	}
	s := mustSystem(t, Config{Network: "BUS"}) // case-insensitive
	if s.net.Model().Name() != "bus" || s.Config().Network != "bus" {
		t.Fatalf("network = %q / %q, want bus", s.net.Model().Name(), s.Config().Network)
	}
	if def := mustSystem(t, Config{}); def.Config().Network != "ideal" {
		t.Fatalf("default network = %q, want ideal", def.Config().Network)
	}
}

func TestSegmentRoundsToUnitMultiple(t *testing.T) {
	s := mustSystem(t, Config{SegmentBytes: 3 * mem.PageSize, UnitPages: 2})
	if s.NumPages() != 4 || s.NumUnits() != 2 {
		t.Fatalf("pages=%d units=%d", s.NumPages(), s.NumUnits())
	}
}

func TestAlloc(t *testing.T) {
	s := mustSystem(t, Config{SegmentBytes: 4 * mem.PageSize})
	a := s.Alloc(10)
	b := s.Alloc(8)
	if a != 0 || b != 16 {
		t.Fatalf("a=%d b=%d (want word alignment)", a, b)
	}
	c := s.AllocPages(2)
	if c != mem.PageSize {
		t.Fatalf("AllocPages = %d, want page aligned %d", c, mem.PageSize)
	}
}

func TestAllocOverflowPanics(t *testing.T) {
	s := mustSystem(t, Config{SegmentBytes: mem.PageSize})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Alloc(2 * mem.PageSize)
}

func TestTryAllocErrors(t *testing.T) {
	s := mustSystem(t, Config{SegmentBytes: mem.PageSize})
	if _, err := s.TryAlloc(2 * mem.PageSize); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	if _, err := s.TryAlloc(-1); err == nil {
		t.Fatal("expected negative-size error")
	}
	if _, err := s.TryAllocPages(2); err == nil {
		t.Fatal("expected out-of-memory error from TryAllocPages")
	}
	// A failed allocation must not consume segment space.
	if a, err := s.TryAlloc(mem.PageSize); err != nil || a != 0 {
		t.Fatalf("TryAlloc after failures = %d, %v", a, err)
	}
}

// --- LRC litmus tests -----------------------------------------------------

// Message passing through a barrier: p0's write is visible to p1 after
// the barrier, with exactly one diff exchange.
func TestBarrierMessagePassing(t *testing.T) {
	var got float64
	res := run(t, Config{Procs: 2, SegmentBytes: mem.PageSize}, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(0, 42.5)
		}
		p.Barrier()
		if p.ID() == 1 {
			got = p.ReadF64(0)
		}
		p.Barrier()
	})
	if got != 42.5 {
		t.Fatalf("p1 read %v, want 42.5", got)
	}
	if res.Stats.Exchanges != 1 {
		t.Fatalf("exchanges = %d, want 1", res.Stats.Exchanges)
	}
	if res.Stats.Messages.Useless != 0 {
		t.Fatalf("useless msgs = %d, want 0", res.Stats.Messages.Useless)
	}
	// 2 barriers × 2 procs × (arrive+release) + req + reply = 10.
	if res.Messages != 10 {
		t.Fatalf("total messages = %d, want 10", res.Messages)
	}
	if res.Faults != 1 {
		t.Fatalf("faults = %d, want 1", res.Faults)
	}
}

// Message passing through a lock.
func TestLockMessagePassing(t *testing.T) {
	var got float64
	run(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Locks: 1}, func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(0)
			p.WriteF64(8, 7.25)
			p.Unlock(0)
		}
		p.Barrier() // order the lock acquisitions
		if p.ID() == 1 {
			p.Lock(0)
			got = p.ReadF64(8)
			p.Unlock(0)
		}
	})
	if got != 7.25 {
		t.Fatalf("p1 read %v, want 7.25", got)
	}
}

// Lock-based mutual exclusion: concurrent increments never lose updates.
func TestLockCounterIncrements(t *testing.T) {
	const procs, per = 4, 25
	var got int64
	run(t, Config{Procs: procs, SegmentBytes: mem.PageSize, Locks: 1}, func(p *Proc) {
		for i := 0; i < per; i++ {
			p.Lock(0)
			v := p.ReadI64(0)
			p.WriteI64(0, v+1)
			p.Unlock(0)
		}
		p.Barrier()
		if p.ID() == 0 {
			got = p.ReadI64(0)
		}
	})
	if got != procs*per {
		t.Fatalf("counter = %d, want %d", got, procs*per)
	}
}

// Multiple-writer protocol: two concurrent writers to disjoint halves of
// one page; a third processor sees both after the barrier.
func TestMultipleWritersMerge(t *testing.T) {
	var top, bottom float64
	res := run(t, Config{Procs: 3, SegmentBytes: mem.PageSize}, func(p *Proc) {
		switch p.ID() {
		case 0:
			p.WriteF64(wordAddr(0, 0), 1.5)
		case 1:
			p.WriteF64(wordAddr(0, 256), 2.5)
		}
		p.Barrier()
		if p.ID() == 2 {
			top = p.ReadF64(wordAddr(0, 0))
			bottom = p.ReadF64(wordAddr(0, 256))
		}
		p.Barrier()
	})
	if top != 1.5 || bottom != 2.5 {
		t.Fatalf("merge failed: top=%v bottom=%v", top, bottom)
	}
	// One fault, two concurrent writers: signature bucket 2.
	b := res.Stats.Signature[2]
	if b == nil || b.Faults != 1 {
		t.Fatalf("signature = %+v", res.Stats.Signature)
	}
	if b.UsefulMsgs != 4 || b.UselessMsgs != 0 {
		t.Fatalf("bucket 2 = %+v (both exchanges were read)", b)
	}
}

// The paper's §2 useless-message example: p0 and p1 exhibit write-write
// false sharing; p2 reads only p0's half, so the exchange with p1 is
// useless (2 useless messages).
func TestUselessMessagesFromWriteWriteFalseSharing(t *testing.T) {
	res := run(t, Config{Procs: 3, SegmentBytes: mem.PageSize}, func(p *Proc) {
		switch p.ID() {
		case 0:
			for w := 0; w < 256; w++ {
				p.WriteF64(wordAddr(0, w), 1.0)
			}
		case 1:
			for w := 256; w < 512; w++ {
				p.WriteF64(wordAddr(0, w), 2.0)
			}
		}
		p.Barrier()
		if p.ID() == 2 {
			for w := 0; w < 256; w++ {
				p.ReadF64(wordAddr(0, w))
			}
		}
		p.Barrier()
	})
	if res.Stats.Messages.Useless != 2 {
		t.Fatalf("useless msgs = %d, want 2 (request+reply with p1)", res.Stats.Messages.Useless)
	}
	if res.Stats.UselessBytes != 256*mem.WordSize {
		t.Fatalf("useless bytes = %d, want %d", res.Stats.UselessBytes, 256*mem.WordSize)
	}
	if res.Stats.PiggybackedBytes != 0 {
		t.Fatalf("piggybacked = %d, want 0", res.Stats.PiggybackedBytes)
	}
	b := res.Stats.Signature[2]
	if b == nil || b.UsefulMsgs != 2 || b.UselessMsgs != 2 {
		t.Fatalf("signature bucket 2 = %+v", b)
	}
}

// The paper's §2 useless-data example: p0 writes a whole page, p1 reads
// only the top half; the bottom half is piggybacked useless data.
func TestPiggybackedUselessData(t *testing.T) {
	res := run(t, Config{Procs: 2, SegmentBytes: mem.PageSize}, func(p *Proc) {
		if p.ID() == 0 {
			for w := 0; w < 512; w++ {
				p.WriteF64(wordAddr(0, w), 3.0)
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			for w := 0; w < 256; w++ {
				p.ReadF64(wordAddr(0, w))
			}
		}
		p.Barrier()
	})
	if res.Stats.Messages.Useless != 0 {
		t.Fatalf("useless msgs = %d, want 0", res.Stats.Messages.Useless)
	}
	if res.Stats.UsefulBytes != 256*mem.WordSize {
		t.Fatalf("useful bytes = %d", res.Stats.UsefulBytes)
	}
	if res.Stats.PiggybackedBytes != 256*mem.WordSize {
		t.Fatalf("piggybacked bytes = %d, want %d", res.Stats.PiggybackedBytes, 256*mem.WordSize)
	}
}

// --- static aggregation (§3 worked examples) -------------------------------

// Example 1: p0 writes two contiguous pages, p1 reads both. Doubling the
// unit halves the exchanges without changing the data.
func TestStaticAggregationReducesMessages(t *testing.T) {
	body := func(p *Proc) {
		if p.ID() == 0 {
			for w := 0; w < 512; w++ {
				p.WriteF64(wordAddr(0, w), 1.0)
				p.WriteF64(wordAddr(1, w), 2.0)
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			for w := 0; w < 512; w++ {
				p.ReadF64(wordAddr(0, w))
				p.ReadF64(wordAddr(1, w))
			}
		}
		p.Barrier()
	}
	r1 := run(t, Config{Procs: 2, SegmentBytes: 2 * mem.PageSize, UnitPages: 1}, body)
	r2 := run(t, Config{Procs: 2, SegmentBytes: 2 * mem.PageSize, UnitPages: 2}, body)

	if r1.Stats.Exchanges != 2 || r2.Stats.Exchanges != 1 {
		t.Fatalf("exchanges = %d (4K) vs %d (8K), want 2 vs 1",
			r1.Stats.Exchanges, r2.Stats.Exchanges)
	}
	d1 := r1.Stats.TotalDataBytes()
	d2 := r2.Stats.TotalDataBytes()
	if d1 != d2 {
		t.Fatalf("data bytes changed: %d vs %d", d1, d2)
	}
	if r2.Time >= r1.Time {
		t.Fatalf("aggregation must be faster: %v vs %v", r2.Time, r1.Time)
	}
}

// Example 2 (modified): p0 writes page 0, p1 writes page 1, p2 reads only
// page 0. At 4 KB there is one useful exchange; at 8 KB false sharing
// adds a useless exchange with p1.
func TestStaticAggregationAddsUselessMessages(t *testing.T) {
	body := func(p *Proc) {
		switch p.ID() {
		case 0:
			for w := 0; w < 512; w++ {
				p.WriteF64(wordAddr(0, w), 1.0)
			}
		case 1:
			for w := 0; w < 512; w++ {
				p.WriteF64(wordAddr(1, w), 2.0)
			}
		}
		p.Barrier()
		if p.ID() == 2 {
			for w := 0; w < 512; w++ {
				p.ReadF64(wordAddr(0, w))
			}
		}
		p.Barrier()
	}
	r1 := run(t, Config{Procs: 3, SegmentBytes: 2 * mem.PageSize, UnitPages: 1}, body)
	r2 := run(t, Config{Procs: 3, SegmentBytes: 2 * mem.PageSize, UnitPages: 2}, body)

	if r1.Stats.Messages.Useless != 0 {
		t.Fatalf("4K useless msgs = %d, want 0", r1.Stats.Messages.Useless)
	}
	if r2.Stats.Messages.Useless != 2 {
		t.Fatalf("8K useless msgs = %d, want 2", r2.Stats.Messages.Useless)
	}
	if r2.Stats.UselessBytes != 512*mem.WordSize {
		t.Fatalf("8K useless bytes = %d, want one whole page", r2.Stats.UselessBytes)
	}
	// Signature shifts from bucket 1 to bucket 2.
	if r1.Stats.Signature[1] == nil || r1.Stats.Signature[2] != nil {
		t.Fatalf("4K signature = %v", r1.Stats.Signature)
	}
	if r2.Stats.Signature[2] == nil {
		t.Fatalf("8K signature = %v", r2.Stats.Signature)
	}
}

// Writes to an invalid unit must first bring it up to date (write fault
// implies fetch), preserving remote words.
func TestWriteFaultOnInvalidUnitFetchesFirst(t *testing.T) {
	var a, b float64
	run(t, Config{Procs: 2, SegmentBytes: mem.PageSize}, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(wordAddr(0, 0), 5.0)
		}
		p.Barrier()
		if p.ID() == 1 {
			// Write a different word without reading first.
			p.WriteF64(wordAddr(0, 1), 6.0)
		}
		p.Barrier()
		if p.ID() == 0 {
			a = p.ReadF64(wordAddr(0, 0))
			b = p.ReadF64(wordAddr(0, 1))
		}
		p.Barrier()
	})
	if a != 5.0 || b != 6.0 {
		t.Fatalf("a=%v b=%v, want 5 and 6 (p1's write fault must fetch p0's diff)", a, b)
	}
}

// Three chained intervals through barriers must apply causally.
func TestCausalChainAcrossBarriers(t *testing.T) {
	var got float64
	run(t, Config{Procs: 3, SegmentBytes: mem.PageSize}, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(0, 1.0)
		}
		p.Barrier()
		if p.ID() == 1 {
			v := p.ReadF64(0)
			p.WriteF64(0, v+1)
		}
		p.Barrier()
		if p.ID() == 2 {
			got = p.ReadF64(0)
		}
		p.Barrier()
	})
	if got != 2.0 {
		t.Fatalf("got %v, want 2 (causal order violated)", got)
	}
}

// --- dynamic aggregation ----------------------------------------------------

// A repeated producer/consumer pattern over 4 pages: after one interval
// of observation, the consumer fetches the whole group in one exchange.
func TestDynamicAggregationLearnsGroups(t *testing.T) {
	const pages = 4
	exchangesPerRound := make([]int, 0, 3)
	var prev int
	cfg := Config{Procs: 2, SegmentBytes: pages * mem.PageSize, Dynamic: true, Collect: true}
	s := mustSystem(t, cfg)
	res := s.Run(func(p *Proc) {
		for round := 0; round < 3; round++ {
			if p.ID() == 0 {
				for pg := 0; pg < pages; pg++ {
					for w := 0; w < 512; w++ {
						p.WriteF64(wordAddr(pg, w), float64(round*1000+pg+1))
					}
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				for pg := 0; pg < pages; pg++ {
					for w := 0; w < 512; w++ {
						if got := p.ReadF64(wordAddr(pg, w)); got != float64(round*1000+pg+1) {
							t.Errorf("round %d page %d: got %v", round, pg, got)
							return
						}
					}
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				m, _ := s.net.Counts()
				_ = m
			}
		}
	})
	_ = prev
	_ = exchangesPerRound
	// Round 1: 4 single-page fetches (4 exchanges). Rounds 2 and 3: one
	// group fetch each (1 exchange) + 3 zero-fetch faults each.
	if res.Stats.Exchanges != 4+1+1 {
		t.Fatalf("exchanges = %d, want 6", res.Stats.Exchanges)
	}
	if res.Stats.ZeroFetchFaults != 6 {
		t.Fatalf("zero-fetch faults = %d, want 6", res.Stats.ZeroFetchFaults)
	}
	if res.Stats.Messages.Useless != 0 {
		t.Fatalf("useless msgs = %d", res.Stats.Messages.Useless)
	}
}

// When the access pattern changes, the dynamic scheme reverts to
// per-page fetches instead of dragging stale groups along.
func TestDynamicAggregationAdaptsToPatternChange(t *testing.T) {
	const pages = 4
	cfg := Config{Procs: 2, SegmentBytes: pages * mem.PageSize, Dynamic: true, Collect: true}
	s := mustSystem(t, cfg)
	res := s.Run(func(p *Proc) {
		// Phase 1: consumer reads all 4 pages (twice, to form groups).
		for round := 0; round < 2; round++ {
			if p.ID() == 0 {
				for pg := 0; pg < pages; pg++ {
					p.WriteF64(wordAddr(pg, 0), float64(round+1))
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				for pg := 0; pg < pages; pg++ {
					p.ReadF64(wordAddr(pg, 0))
				}
			}
			p.Barrier()
		}
		// Phase 2: consumer now reads only page 0.
		if p.ID() == 0 {
			for pg := 0; pg < pages; pg++ {
				p.WriteF64(wordAddr(pg, 0), 9.0)
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			p.ReadF64(wordAddr(0, 0))
		}
		p.Barrier()
		// Phase 3: same; group should now be just page 0, so the fetch
		// carries only page 0's diff.
		if p.ID() == 0 {
			for pg := 0; pg < pages; pg++ {
				p.WriteF64(wordAddr(pg, 0), 11.0)
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			if got := p.ReadF64(wordAddr(0, 0)); got != 11.0 {
				t.Errorf("phase 3 read = %v", got)
			}
		}
		p.Barrier()
	})
	// Phase 2's group fetch drags pages 1-3 (hysteresis: useless data),
	// phase 3's fetch must not.
	if res.Stats.PiggybackedBytes != 3*mem.WordSize {
		t.Fatalf("piggybacked = %d, want %d (phase-2 hysteresis only)",
			res.Stats.PiggybackedBytes, 3*mem.WordSize)
	}
}

// --- determinism ------------------------------------------------------------

func TestBarrierProgramDeterministic(t *testing.T) {
	body := func(p *Proc) {
		for r := 0; r < 3; r++ {
			if p.ID() == r%4 {
				for w := 0; w < 64; w++ {
					p.WriteF64(wordAddr(p.ID(), w), float64(r))
				}
			}
			p.Barrier()
			for w := 0; w < 64; w++ {
				p.ReadF64(wordAddr(r%4, w))
			}
			p.Barrier()
		}
	}
	cfg := Config{Procs: 4, SegmentBytes: 4 * mem.PageSize}
	a := run(t, cfg, body)
	b := run(t, cfg, body)
	if a.Time != b.Time {
		t.Fatalf("times differ: %v vs %v", a.Time, b.Time)
	}
	if a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("traffic differs: %d/%d vs %d/%d", a.Messages, a.Bytes, b.Messages, b.Bytes)
	}
	if a.Stats.Messages != b.Stats.Messages {
		t.Fatalf("classification differs")
	}
	if a.Faults != b.Faults {
		t.Fatalf("faults differ: %d vs %d", a.Faults, b.Faults)
	}
}

// A lock goes first to the processor that requests it first in virtual
// time, whichever goroutine the host runs first: processor 1 requests
// after a long computation at once, processor 0 at virtual time zero but
// 20 ms later on the host. The first holder writes its id+1 into a shared
// slot, and after the barrier the slot must name processor 0.
func TestLockOrderFollowsVirtualTime(t *testing.T) {
	var first int64
	run(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Locks: 1}, func(p *Proc) {
		if p.ID() == 1 {
			p.Compute(1_000_000)
		} else {
			time.Sleep(20 * time.Millisecond)
		}
		p.Lock(0)
		if p.ReadI64(0) == 0 {
			p.WriteI64(0, int64(p.ID()+1))
		}
		p.Unlock(0)
		p.Barrier()
		if p.ID() == 0 {
			first = p.ReadI64(0)
		}
	})
	if first != 1 {
		t.Fatalf("first lock holder was processor %d, want 0 (the earlier request in virtual time)", first-1)
	}
}

// deadlockReport runs body on s and returns what Run panicked with. Run
// must panic within a second: a deadlocked run that waits forever fails
// the test instead of hanging it.
func deadlockReport(t *testing.T, s *System, body func(p *Proc)) string {
	t.Helper()
	report := make(chan string, 1)
	go func() {
		defer func() { report <- fmt.Sprint(recover()) }()
		s.Run(body)
	}()
	select {
	case r := <-report:
		return r
	case <-time.After(time.Second):
		t.Fatal("Run still waits a second after its run deadlocked")
		return ""
	}
}

// wantLines fails the test unless report has every line of want.
func wantLines(t *testing.T, report string, want ...string) {
	t.Helper()
	lines := strings.Split(report, "\n")
	for _, w := range want {
		if !slices.Contains(lines, w) {
			t.Errorf("report lacks %q:\n%s", w, report)
		}
	}
}

// TestDeadlockMismatchedBarrier: two processors wait in a second barrier
// the other two never reach. The run is reported, not waited on forever,
// and the System runs a sound program afterwards.
func TestDeadlockMismatchedBarrier(t *testing.T) {
	s := mustSystem(t, Config{Procs: 4, SegmentBytes: mem.PageSize})
	report := deadlockReport(t, s, func(p *Proc) {
		p.Barrier()
		if p.ID() < 2 {
			p.Barrier()
		}
	})
	wantLines(t, report,
		"tmk: deadlock: no processor can run",
		"  processor 0 waits in barrier episode 2: 2 of 4 processors arrived",
		"  processor 1 waits in barrier episode 2: 2 of 4 processors arrived")
	if res := s.Run(func(p *Proc) { p.Barrier() }); res.Time <= 0 {
		t.Fatalf("run after the deadlock: time %v", res.Time)
	}
}

// TestDeadlockLockHeldAtExit: processor 0 returns holding the lock that
// processor 1 is queued for.
func TestDeadlockLockHeldAtExit(t *testing.T) {
	s := mustSystem(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Locks: 1})
	report := deadlockReport(t, s, func(p *Proc) {
		if p.ID() == 1 {
			p.Compute(1000)
		}
		p.Lock(0)
	})
	wantLines(t, report,
		"tmk: deadlock: no processor can run",
		"  processor 1 waits for lock 0, held by processor 0 (returned)")
}

// --- misc -------------------------------------------------------------------

func TestUnlockByNonHolderPanics(t *testing.T) {
	s := mustSystem(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Locks: 1})
	panicked := make(chan bool, 2)
	s.Run(func(p *Proc) {
		if p.ID() == 1 {
			defer func() { panicked <- recover() != nil }()
			p.Unlock(0)
		}
	})
	if !<-panicked {
		t.Fatal("expected panic from Unlock by non-holder")
	}
}

func TestResultCounters(t *testing.T) {
	res := run(t, Config{Procs: 2, SegmentBytes: mem.PageSize}, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(0, 1)
		}
		p.Barrier()
		if p.ID() == 1 {
			p.ReadF64(0)
		}
	})
	if res.Twins != 1 || res.Intervals != 1 || res.DiffsEncoded != 1 {
		t.Fatalf("twins=%d intervals=%d diffs=%d", res.Twins, res.Intervals, res.DiffsEncoded)
	}
	if len(res.ProcTimes) != 2 || res.Time <= 0 {
		t.Fatalf("times = %v", res.ProcTimes)
	}
}

// --- reuse and trials --------------------------------------------------------

// barrierBody is a deterministic producer/consumer program used by the
// reuse tests.
func barrierBody(p *Proc) {
	if p.ID() == 0 {
		for w := 0; w < 128; w++ {
			p.WriteF64(wordAddr(0, w), float64(w))
		}
	}
	p.Barrier()
	if p.ID() == 1 {
		for w := 0; w < 128; w++ {
			p.ReadF64(wordAddr(0, w))
		}
	}
	p.Barrier()
}

func TestSystemReusableAcrossRuns(t *testing.T) {
	s := mustSystem(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Collect: true})
	a := s.Run(barrierBody)
	b := s.Run(barrierBody)
	if a.Time != b.Time || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("trials differ: %v/%d/%d vs %v/%d/%d",
			a.Time, a.Messages, a.Bytes, b.Time, b.Messages, b.Bytes)
	}
	if a.Stats.Messages != b.Stats.Messages {
		t.Fatal("stats differ across reused runs")
	}
}

func TestResetKeepsAllocations(t *testing.T) {
	s := mustSystem(t, Config{Procs: 2, SegmentBytes: 2 * mem.PageSize})
	x := s.Alloc(8)
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(x, 7)
		}
		p.Barrier()
	})
	s.Reset()
	// The allocation cursor must survive Reset: the next Alloc may not
	// overlap x.
	if y := s.Alloc(8); y == x {
		t.Fatalf("Reset leaked the allocator: got %d twice", y)
	}
	// Memory content must not survive Reset.
	res := s.Run(func(p *Proc) {
		if p.ID() == 1 {
			if got := p.ReadF64(x); got != 0 {
				t.Errorf("replica not zeroed after Reset: %v", got)
			}
		}
		p.Barrier()
	})
	if res.Messages != 4 {
		t.Fatalf("fresh run messages = %d, want 4 (one barrier, no diffs)", res.Messages)
	}
}

// TestRunTrialsDeterministic: back-to-back runs of one System are
// identical trials, and Summarize aggregates them.
func TestRunTrialsDeterministic(t *testing.T) {
	s := mustSystem(t, Config{Procs: 2, SegmentBytes: mem.PageSize, Collect: true})
	var trials []*Result
	for range 3 {
		trials = append(trials, s.Run(barrierBody))
	}
	ts := Summarize(trials)
	if len(ts.Trials) != 3 {
		t.Fatalf("trials = %d", len(ts.Trials))
	}
	for i, r := range ts.Trials {
		if r.Time != ts.Trials[0].Time {
			t.Fatalf("trial %d time %v != trial 0 time %v", i, r.Time, ts.Trials[0].Time)
		}
	}
	if ts.MinTime != ts.MeanTime || ts.MeanTime != ts.MaxTime {
		t.Fatalf("aggregate mismatch: min=%v mean=%v max=%v", ts.MinTime, ts.MeanTime, ts.MaxTime)
	}
	if ts.MeanMessages != float64(ts.Trials[0].Messages) {
		t.Fatalf("mean messages = %v, want %d", ts.MeanMessages, ts.Trials[0].Messages)
	}
}
