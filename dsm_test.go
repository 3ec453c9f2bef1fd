package dsm

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The public façade: the quick-start program from the package comment.
func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := New(
		WithProcs(4),
		WithSegmentBytes(1<<16),
		WithLocks(1),
		WithCollection(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := sys.Alloc(256 * WordSize)
	if err != nil {
		t.Fatal(err)
	}
	var seen float64
	res := sys.Run(func(p *Proc) {
		p.Lock(0)
		p.WriteI64(x, p.ReadI64(x)+1)
		p.Unlock(0)
		p.Barrier()
		if p.ID() == 0 {
			for i := 0; i < 256; i++ {
				p.WriteF64(arr+WordSize*i, float64(i))
			}
		}
		p.Barrier()
		if p.ID() == 3 {
			for i := 0; i < 256; i++ {
				seen += p.ReadF64(arr + WordSize*i)
			}
		}
	})
	if seen != 255*256/2 {
		t.Fatalf("sum = %v", seen)
	}
	if res.Time <= 0 || res.Messages == 0 || res.Stats == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
	if res.Stats.Messages.Total() != res.Messages {
		t.Fatalf("stats/message mismatch: %d vs %d",
			res.Stats.Messages.Total(), res.Messages)
	}
}

// Every invalid option or combination must surface as an error from
// New — the public path never panics.
func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"zero procs", []Option{WithProcs(0)}, "WithProcs"},
		{"negative procs", []Option{WithProcs(-3)}, "WithProcs"},
		{"zero segment", []Option{WithSegmentBytes(0)}, "WithSegmentBytes"},
		{"zero unit", []Option{WithUnitPages(0)}, "WithUnitPages"},
		{"negative locks", []Option{WithLocks(-1)}, "WithLocks"},
		{
			"dynamic with multi-page unit",
			[]Option{WithDynamicAggregation(), WithUnitPages(2)},
			"dynamic aggregation requires UnitPages == 1",
		},
		{"unknown network", []Option{WithNetwork("token-ring")}, "WithNetwork"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) succeeded (%+v), want error", tc.name, sys.Config())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWithNetworkSweep runs one false-sharing kernel across every
// registered interconnect model through the public API: the default is
// ideal (zero queue delay), contended models only add delay, and the
// computed result is identical everywhere — the network axis changes
// timing, never semantics.
func TestWithNetworkSweep(t *testing.T) {
	networks := Networks()
	if len(networks) < 4 {
		t.Fatalf("Networks() = %v, want at least ideal/bus/switch + one preset", networks)
	}
	body := func(p *Proc, arr Addr) {
		for i := 0; i < 128; i++ {
			p.WriteF64(arr+WordSize*(p.ID()*128+i), float64(p.ID()))
		}
		p.Barrier()
		var sum float64
		for i := 0; i < 4*128; i++ {
			sum += p.ReadF64(arr + WordSize*i)
		}
		p.Barrier()
	}
	var idealTime Duration
	for _, name := range networks {
		sys, err := New(WithProcs(4), WithSegmentBytes(1<<16), WithNetwork(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Config().Network; got != name {
			t.Fatalf("Config().Network = %q, want %q", got, name)
		}
		arr, err := sys.Alloc(4 * 128 * WordSize)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(func(p *Proc) { body(p, arr) })
		if res.Network != name {
			t.Fatalf("Result.Network = %q, want %q", res.Network, name)
		}
		switch name {
		case "ideal":
			idealTime = res.Time
			if res.QueueDelay != 0 {
				t.Fatalf("ideal run reports queue delay %v", res.QueueDelay)
			}
		case "bus", "switch":
			if res.QueueDelay <= 0 {
				t.Fatalf("%s run with 4 concurrent writers reports no queue delay", name)
			}
		}
	}
	if idealTime <= 0 {
		t.Fatal("ideal network never ran")
	}
}

// TestDefaultNetworkMatchesIdeal pins the compatibility guarantee: a
// System built without WithNetwork prices exactly as WithNetwork("ideal").
func TestDefaultNetworkMatchesIdeal(t *testing.T) {
	run := func(opts ...Option) *Result {
		sys, err := New(append([]Option{WithProcs(4), WithSegmentBytes(1 << 15)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := sys.Alloc(512 * WordSize)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < 512; i++ {
					p.WriteF64(arr+WordSize*i, float64(i))
				}
			}
			p.Barrier()
			_ = p.ReadF64(arr + WordSize*511)
		})
	}
	def, ideal := run(), run(WithNetwork("ideal"))
	if def.Time != ideal.Time || def.Messages != ideal.Messages || def.Bytes != ideal.Bytes {
		t.Fatalf("default run %+v != ideal run %+v", def, ideal)
	}
	if def.Network != "ideal" {
		t.Fatalf("default network = %q", def.Network)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Procs != 8 || cfg.UnitPages != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if sys.SegmentBytes() != PageSize || sys.NumPages() != 1 || sys.NumUnits() != 1 {
		t.Fatalf("segment geometry: %d bytes, %d pages, %d units",
			sys.SegmentBytes(), sys.NumPages(), sys.NumUnits())
	}
}

// Exhausting the shared segment is an error from Alloc, not a panic.
func TestAllocOutOfMemoryError(t *testing.T) {
	sys, err := New(WithSegmentBytes(PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Alloc(2 * PageSize); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	if _, err := sys.AllocPages(2); err == nil {
		t.Fatal("expected out-of-memory error from AllocPages")
	}
	// The segment is still usable after a failed allocation.
	if a, err := sys.Alloc(PageSize); err != nil || a != 0 {
		t.Fatalf("Alloc after failure = %d, %v", a, err)
	}
}

// One System executes N independent trials with bit-identical
// simulated times (barrier programs are deterministic).
func TestRunTrialsDeterministic(t *testing.T) {
	sys, err := New(WithProcs(4), WithSegmentBytes(4*PageSize), WithCollection(true))
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *Proc) {
		for r := 0; r < 3; r++ {
			if p.ID() == r%4 {
				for w := 0; w < 64; w++ {
					p.WriteF64(p.ID()*PageSize+8*w, float64(r))
				}
			}
			p.Barrier()
			for w := 0; w < 64; w++ {
				p.ReadF64((r%4)*PageSize + 8*w)
			}
			p.Barrier()
		}
	}
	ts, err := sys.RunTrials(3, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(ts.Trials))
	}
	for i, r := range ts.Trials {
		if r.Time != ts.Trials[0].Time {
			t.Fatalf("trial %d time %v != trial 0 time %v", i, r.Time, ts.Trials[0].Time)
		}
		if r.Messages != ts.Trials[0].Messages {
			t.Fatalf("trial %d messages %d != trial 0 messages %d",
				i, r.Messages, ts.Trials[0].Messages)
		}
	}
	if ts.MinTime != ts.MaxTime || ts.MeanTime != ts.MinTime {
		t.Fatalf("aggregates differ on deterministic program: %+v", ts)
	}
	if _, err := sys.RunTrials(0, body); err == nil {
		t.Fatal("RunTrials(0) must error")
	}
}

// WithTrace writes every trial as its own run: three trials, each on
// its own engine sharing the option's capture, leave three runs with
// distinct ids (ReadRuns refuses a duplicate), each deriving
// bit-identically on its own model.
func TestWithTraceRunTrials(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	sys, err := New(WithProcs(4), WithSegmentBytes(4*PageSize), WithNetwork("bus"), WithTrace(tw))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sys.RunTrials(3, func(p *Proc) {
		for w := 0; w < 64; w++ {
			p.WriteF64(p.ID()*PageSize+8*w, float64(w))
		}
		p.Barrier()
		for w := 0; w < 64; w++ {
			p.ReadF64(((p.ID()+1)%4)*PageSize + 8*w)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	runs, err := trace.ReadRuns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("stream holds %d runs, want 3", len(runs))
	}
	for i, ms := range runs {
		time, rec := ms.Recorded()
		if rec.Msgs != int64(ts.Trials[0].Messages) {
			t.Errorf("run %d recorded %d messages, trial sent %d", i+1, rec.Msgs, ts.Trials[0].Messages)
		}
		d, err := ms.Derive(ms.Meta().Network)
		if err != nil {
			t.Fatal(err)
		}
		if d.Time != time || d.Totals != rec {
			t.Errorf("run %d: recorded %v %+v, derived on its own network %v %+v", i+1, time, rec, d.Time, d.Totals)
		}
	}
}

func TestPublicConstantsAndCostModel(t *testing.T) {
	if PageSize != 4096 || WordSize != 8 {
		t.Fatal("page geometry")
	}
	cm := DefaultCostModel()
	rtt := cm.RoundTrip(1, 0)
	if rtt < 295*sim.Microsecond || rtt > 297*sim.Microsecond {
		t.Fatalf("RTT = %v, want ~296µs", rtt)
	}
}

func TestWithCostModelOverride(t *testing.T) {
	cm := DefaultCostModel()
	cm.MessageLeg *= 10
	slow, err := New(WithProcs(2), WithCostModel(cm))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *Proc) { p.Barrier() }
	if st, ft := slow.Run(body).Time, fast.Run(body).Time; st <= ft {
		t.Fatalf("inflated cost model not applied: slow=%v fast=%v", st, ft)
	}
}

func TestPublicAPIDynamicAggregation(t *testing.T) {
	sys, err := New(
		WithProcs(2),
		WithSegmentBytes(8*PageSize),
		WithDynamicAggregation(),
		WithCollection(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(func(p *Proc) {
		for round := 0; round < 3; round++ {
			if p.ID() == 0 {
				for pg := 0; pg < 4; pg++ {
					p.WriteF64(pg*PageSize, float64(round+pg+1))
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				for pg := 0; pg < 4; pg++ {
					p.ReadF64(pg * PageSize)
				}
			}
			p.Barrier()
		}
	})
	// Rounds 2 and 3 fetch the learned 4-page group in one exchange.
	if res.Stats.Exchanges != 4+1+1 {
		t.Fatalf("exchanges = %d, want 6", res.Stats.Exchanges)
	}
}

// A context canceled before RunTrialsContext starts must abort the call
// with the context's error and run no trials at all; the plain RunTrials
// path keeps working unchanged.
func TestPublicAPIRunTrialsContextCanceled(t *testing.T) {
	sys, err := New(WithProcs(2), WithSegmentBytes(4*PageSize))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if _, err := sys.RunTrialsContext(ctx, 3, func(p *Proc) { ran = true; p.Barrier() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTrialsContext error = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("a trial body ran under a pre-canceled context")
	}
	res, err := sys.RunTrials(2, func(p *Proc) { p.Barrier() })
	if err != nil {
		t.Fatalf("RunTrials after canceled call: %v", err)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(res.Trials))
	}
}
