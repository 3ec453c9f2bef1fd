package tmk_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// trialMallocs runs one trial on an already-warm system and returns
// the number of heap allocations it performed.
func trialMallocs(sys *tmk.System, body func(*tmk.Proc)) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Run(body)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocBudgetSteadyStateRun pins the whole-engine steady-state
// allocation budget: after a cold trial has sized every per-processor
// scratch structure (twin free lists, diff scratch, fetch index
// tables, delta buffers), a further homeless jacobi trial on the
// reused System must stay under 340 heap allocations.
//
// The pre-scratch engine measured 7226 mallocs (5.9 MB) for the same
// trial, the rebuilt inner loops ~525, and with diffs carved from
// per-processor slabs that rewind at Reset (no allocation per dirty
// page) 268–271. The ceiling is 1.25× that — what remains is goroutine
// startup, interval records retained by the published store (they must
// outlive the trial), and the trial's Result.
func TestAllocBudgetSteadyStateRun(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	w := e.Make(8)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, UnitPages: 1, Protocol: "homeless"})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(w.Body) // cold: sizes the scratch
	sys.Run(w.Body) // settle free lists at their steady population

	// Take the minimum of a few trials: a GC mid-run or an unlucky
	// scheduling can only add allocations, never hide any.
	best := trialMallocs(sys, w.Body)
	for i := 0; i < 2; i++ {
		if m := trialMallocs(sys, w.Body); m < best {
			best = m
		}
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	const budget = 340
	if best > budget {
		t.Errorf("steady-state homeless jacobi trial: %d mallocs, budget %d", best, budget)
	}
}

// TestAllocBudgetInstrumentedRun pins the steady-state budget of the
// same trial with the §5.3 collector on, the configuration every
// paper-grid cell runs under. A collector lives one run, so its
// per-processor tables and tag rows are allocated again each trial, but
// nothing may be allocated per exchange or per fault: exchanges are
// values indexed by their tags, a fault records the range of its
// exchanges, and coalesced diffs are carved from fetch scratch.
//
// With a heap record per exchange, a slice of them per fetch and one per
// fault, and a tag row allocated per page, this trial made 711 mallocs;
// with tag rows carved from chunks and none of the rest, 275–280. The
// ceiling is 1.25× that.
func TestAllocBudgetInstrumentedRun(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	w := e.Make(8)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, UnitPages: 1, Protocol: "homeless", Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(w.Body) // cold: sizes the scratch
	sys.Run(w.Body) // settle free lists at their steady population

	best := trialMallocs(sys, w.Body)
	for i := 0; i < 2; i++ {
		if m := trialMallocs(sys, w.Body); m < best {
			best = m
		}
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	const budget = 350
	if best > budget {
		t.Errorf("steady-state instrumented homeless jacobi trial: %d mallocs, budget %d", best, budget)
	}
}

// TestAllocBudgetCaptureRun pins the same steady-state budget with
// MemSink capture on — the configuration every derived-sweep base cell
// runs under. A reused sink's Reset keeps its column capacity, so
// capture must add locking, not allocation: the budget is the plain
// run's 340 plus slack for the forced pricing-lock path (measured
// 269–272), nowhere near the ~100k events a trial captures.
func TestAllocBudgetCaptureRun(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	w := e.Make(8)
	ms := trace.NewMemSink()
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, UnitPages: 1, Protocol: "homeless", Sink: ms})
	if err != nil {
		t.Fatal(err)
	}
	trial := func() uint64 {
		ms.Reset()
		return trialMallocs(sys, w.Body)
	}
	trial() // cold: sizes engine scratch and sink columns
	trial() // settle free lists

	best := trial()
	for i := 0; i < 2; i++ {
		if m := trial(); m < best {
			best = m
		}
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if !ms.Ended() || ms.Len() == 0 {
		t.Fatalf("capture incomplete: ended %v, %d events", ms.Ended(), ms.Len())
	}
	const budget = 400
	if best > budget {
		t.Errorf("steady-state captured jacobi trial: %d mallocs, budget %d", best, budget)
	}
}
