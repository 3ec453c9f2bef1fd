package shallow

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Rows: 512, Cols: 16, Iters: 2, Procs: 8} }

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
		c := small()
		c.Procs = 8
		a := New(c)
		if _, err := apps.Run(a, tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectAtOtherProcCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		c := small()
		c.Procs = procs
		if _, err := apps.Run(New(c), tmk.Config{Procs: procs, Collect: true}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

// Paper §5.5: with one column per page, the flux array's write-write
// false sharing is invisible at 4 KB but produces useless messages as
// soon as a unit holds two columns.
func TestFluxFalseSharingAppearsAtLargerUnits(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r8 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 2, Collect: true})
	if r4.Stats.Messages.Useless != 0 {
		t.Fatalf("4K useless msgs = %d, want 0", r4.Stats.Messages.Useless)
	}
	if r8.Stats.Messages.Useless == 0 {
		t.Fatal("8K must show useless messages (flux columns colocated)")
	}
	// State arrays also add piggybacked useless data at 8K.
	if r8.Stats.PiggybackedBytes <= r4.Stats.PiggybackedBytes {
		t.Fatalf("piggybacked: 4K=%d 8K=%d", r4.Stats.PiggybackedBytes, r8.Stats.PiggybackedBytes)
	}
}

// With 2-page columns the same effects move out to 16 KB.
func TestLargerColumnsDelayFalseSharing(t *testing.T) {
	c := Config{Rows: 1024, Cols: 16, Iters: 2, Procs: 8}
	r8 := mustRun(t, c, tmk.Config{Procs: 8, UnitPages: 2, Collect: true})
	r16 := mustRun(t, c, tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	if r8.Stats.Messages.Useless != 0 {
		t.Fatalf("8K useless msgs = %d, want 0 (column == unit)", r8.Stats.Messages.Useless)
	}
	if r16.Stats.Messages.Useless == 0 {
		t.Fatal("16K must show useless messages")
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	b := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	if a.Time != b.Time || a.Messages != b.Messages {
		t.Fatalf("nondeterministic")
	}
}

// The registry entry is the workload's only name: "Shallow" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("Shallow", "")
	if !ok {
		t.Fatal("Shallow is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("Shallow does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
