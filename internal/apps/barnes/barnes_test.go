package barnes

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Bodies: 256, Steps: 2, Procs: 8} }

func mustRun(t *testing.T, c Config, ec tmk.Config) *tmk.Result {
	t.Helper()
	a := New(c)
	res, err := apps.Run(a, ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectOtherProcCounts(t *testing.T) {
	for _, procs := range []int{1, 3} {
		c := small()
		c.Procs = procs
		if _, err := apps.Run(New(c), tmk.Config{Procs: procs, Collect: true}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

// Paper §5.5: cyclic body assignment means heavy write-write false
// sharing mixed with extensive true sharing — few useless messages, a
// large amount of piggybacked useless data (private velocity fields).
func TestFalseSharingMixedWithTrueSharing(t *testing.T) {
	res := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	useless := res.Stats.Messages.Useless
	if float64(useless) > 0.10*float64(res.Stats.Messages.Total()) {
		t.Fatalf("useless msgs = %d of %d, want few", useless, res.Stats.Messages.Total())
	}
	if res.Stats.PiggybackedBytes == 0 {
		t.Fatal("expected piggybacked useless data (private body fields)")
	}
	// Multi-writer faults dominate the body pages: the signature must
	// have mass at cardinality >= 2.
	multi := 0
	total := 0
	for k, b := range res.Stats.Signature {
		total += b.Faults
		if k >= 2 {
			multi += b.Faults
		}
	}
	if multi == 0 {
		t.Fatalf("no multi-writer faults (total %d)", total)
	}
}

// Aggregation is beneficial: every processor reads most of the body
// array and the whole tree.
func TestAggregationBeneficial(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r16 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	if r16.Stats.Messages.Total() >= r4.Stats.Messages.Total() {
		t.Fatalf("messages: 4K=%d 16K=%d", r4.Stats.Messages.Total(), r16.Stats.Messages.Total())
	}
	if r16.Time >= r4.Time {
		t.Fatalf("time: 4K=%v 16K=%v", r4.Time, r16.Time)
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	b := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	if a.Time != b.Time || a.Messages != b.Messages {
		t.Fatal("nondeterministic")
	}
}

// The registry entry is the workload's only name: "Barnes" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("Barnes", "")
	if !ok {
		t.Fatal("Barnes is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("Barnes does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
