package mgs

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Dim: 512, Vectors: 24, Procs: 8} }

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
		a := New(small())
		if _, err := apps.Run(a, tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	a := New(small())
	if _, err := apps.Run(a, tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectSingleProc(t *testing.T) {
	a := New(Config{Dim: 512, Vectors: 8, Procs: 1})
	if _, err := apps.Run(a, tmk.Config{Procs: 1, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

// The paper's dramatic MGS result: with vector == page, larger units
// colocate cyclically-owned vectors, every unit gets multiple concurrent
// writers, and useless messages explode. Performance degrades badly.
func TestUselessMessageExplosionAtLargerUnits(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r8 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 2, Collect: true})

	if r4.Stats.Messages.Useless != 0 {
		t.Fatalf("4K useless msgs = %d, want 0 (granularity matches page)",
			r4.Stats.Messages.Useless)
	}
	if r8.Stats.Messages.Useless == 0 {
		t.Fatal("8K must produce useless messages")
	}
	if r8.Time <= r4.Time {
		t.Fatalf("8K must be slower: 4K=%v 8K=%v", r4.Time, r8.Time)
	}
	// Signature shift: at 4K every fetch contacts one writer; at 8K the
	// histogram moves right.
	if r4.Stats.Signature[2] != nil {
		t.Fatalf("4K signature has bucket 2: %+v", r4.Stats.Signature[2])
	}
	var right8 int
	for k, b := range r8.Stats.Signature {
		if k >= 2 {
			right8 += b.Faults
		}
	}
	if right8 == 0 {
		t.Fatal("8K signature must shift right")
	}
}

// Dynamic aggregation must match the static 4 KB page for MGS ("there is
// no repetition in any processor's data fetch pattern").
func TestDynamicMatchesBestStatic(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	rd := mustRun(t, small(), tmk.Config{Procs: 8, Dynamic: true, Collect: true})
	// Within a few percent of the 4 KB static time.
	ratio := float64(rd.Time) / float64(r4.Time)
	if ratio > 1.10 {
		t.Fatalf("dynamic/4K time ratio = %.3f, want <= 1.10", ratio)
	}
	if rd.Stats.Messages.Useless > r4.Stats.Messages.Useless+r4.Stats.Messages.Total()/20 {
		t.Fatalf("dynamic useless msgs = %d vs 4K %d",
			rd.Stats.Messages.Useless, r4.Stats.Messages.Useless)
	}
}

// The registry entry is the workload's only name: "MGS" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("MGS", "")
	if !ok {
		t.Fatal("MGS is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("MGS does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
