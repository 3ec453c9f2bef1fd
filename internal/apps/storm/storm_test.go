package storm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{PagesPerProc: 2, Episodes: 8, Procs: 8} }

func TestCorrectAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		a := New(small())
		if _, err := apps.Run(a, tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectSingleProc(t *testing.T) {
	a := New(Config{PagesPerProc: 2, Episodes: 4, Procs: 1})
	if _, err := apps.Run(a, tmk.Config{Procs: 1, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectUnderHomeAndTreeBarrier(t *testing.T) {
	a := New(Config{PagesPerProc: 2, Episodes: 8, Procs: 16})
	cfg := tmk.Config{Procs: 16, Protocol: "home", Barrier: "tree", BarrierRadix: 4}
	if _, err := apps.Run(a, cfg); err != nil {
		t.Fatal(err)
	}
}

// The workload's defining property: per-processor communication stays
// constant as the machine grows, so total faults scale linearly with
// the processor count (one neighbour miss per processor per episode)
// and barrier-time notice work quadratically — the scaling sweep's
// stress term.
func TestFaultsScaleLinearly(t *testing.T) {
	run := func(n int) *tmk.Result {
		a := New(Config{PagesPerProc: 2, Episodes: 8, Procs: n})
		res, err := apps.Run(a, tmk.Config{Procs: n})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r8, r32 := run(8), run(32)
	if want := 4 * r8.Faults; r32.Faults != want {
		t.Fatalf("faults at 32 procs = %d, want %d (4x the 8-proc count %d)",
			r32.Faults, want, r8.Faults)
	}
}

// The registry entry is the workload's only name: "Storm" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("Storm", "")
	if !ok {
		t.Fatal("Storm is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("Storm does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
