package tmk_test

import (
	"runtime"
	"runtime/debug"
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

// steadyMallocs runs trial twice, to size every per-processor scratch
// structure and settle free lists at their steady population, and
// returns the fewest mallocs of three more trials: a GC mid-run or an
// unlucky scheduling can only add allocations, never hide any.
func steadyMallocs(trial func() uint64) uint64 {
	trial()
	trial()
	best := trial()
	for i := 0; i < 2; i++ {
		best = min(best, trial())
	}
	return best
}

// TestAllocBudgetSteadyStateRun pins the whole-engine steady-state
// allocation budget: after a cold trial has sized every per-processor
// scratch structure (twin free lists, diff scratch, fetch index
// tables, delta buffers), a further homeless jacobi trial on the
// reused System must stay under 68 heap allocations.
//
// The pre-scratch engine measured 7226 mallocs (5.9 MB) for the same
// trial, the rebuilt inner loops ~525, with diffs carved from
// per-processor slabs that rewind at Reset (no allocation per dirty
// page) 268–271, with interval records carved from such slabs too and
// fetch cursors kept by value 125–126, and with the interval store
// keeping its lists and records in arenas that survive Reset 50–54. The
// ceiling is 1.25× that — what remains is goroutine startup, the
// barriers' epochs, and the trial's Result.
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
	best := steadyMallocs(func() uint64 { return trialMallocs(sys, w.Body) })
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	const budget = 68
	t.Logf("%d mallocs", best)
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
// with tag rows carved from chunks and none of the rest, 275–280; with
// interval records carved from slabs too, 258; with the store's lists
// and records in arenas that survive Reset, 183–184. The ceiling is
// 1.25× that.
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
	best := steadyMallocs(func() uint64 { return trialMallocs(sys, w.Body) })
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	const budget = 230
	t.Logf("%d mallocs", best)
	if best > budget {
		t.Errorf("steady-state instrumented homeless jacobi trial: %d mallocs, budget %d", best, budget)
	}
}

// TestAllocBudgetCaptureRun pins the same steady-state budget with
// MemSink capture on — the configuration every derived-sweep base cell
// runs under. A reused sink's Reset keeps its column capacity, so
// capture must add locking, not allocation: the budget is 1.25× the
// measured 51–56, about the plain run's count, nowhere near the ~100k events a
// trial captures.
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
	best := steadyMallocs(func() uint64 {
		ms.Reset()
		return trialMallocs(sys, w.Body)
	})
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if !ms.Ended() || ms.Len() == 0 {
		t.Fatalf("capture incomplete: ended %v, %d events", ms.Ended(), ms.Len())
	}
	const budget = 70
	t.Logf("%d mallocs", best)
	if best > budget {
		t.Errorf("steady-state captured jacobi trial: %d mallocs, budget %d", best, budget)
	}
}

// TestAllocBudgetDynRun pins the steady-state budget of the same trial
// under the §4 dynamic aggregation: every fault touches the tracker and
// looks its page's group up, and every synchronization rebuilds the
// groups, all in storage the processor keeps across intervals and
// trials. With a new tracker map per interval, a new slice per group and
// a new tracker and partition per trial, this trial made 380 mallocs;
// without them, 125, the static trial's count then, and 50–55 once
// the interval store kept its storage across Reset. The ceiling is
// 1.25× that.
func TestAllocBudgetDynRun(t *testing.T) {
	e, ok := apps.Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small is not registered")
	}
	w := e.Make(8)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, Dynamic: true, Protocol: "homeless"})
	if err != nil {
		t.Fatal(err)
	}
	best := steadyMallocs(func() uint64 { return trialMallocs(sys, w.Body) })
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	const budget = 69
	t.Logf("%d mallocs", best)
	if best > budget {
		t.Errorf("steady-state dynamic homeless jacobi trial: %d mallocs, budget %d", best, budget)
	}
}

// TestAllocBudgetDecidingRun pins the steady-state budget of trials
// whose barriers decide units: the adaptive switch rule, the placement's
// rehoming step, or both. The barrier indexes its episode once, into
// storage kept across episodes and trials, and the decision pass reads
// each written unit's run of that index; a moved unit is priced by its
// size. A trial allocates its adaptive tables and placement state, not
// anything per barrier or per written unit.
//
// When each barrier distilled the episode into fresh maps twice (the
// adaptive policy's and the rehomer's) and rebuilt every page of a moved
// unit to price the move, these trials made 341, 752, 492 and 707–718
// mallocs; since, 55–56, 58–61, 54 and 178–193 at the default settings,
// and 55, 58, 54 and 178 in every run at GOMAXPROCS 1 with the GC off,
// where the test measures them. The ceilings are 1.25× those, rounded
// up.
func TestAllocBudgetDecidingRun(t *testing.T) {
	for _, c := range []struct {
		app                          string
		protocol, placement, network string
		budget                       uint64
	}{
		{"jacobi", "adaptive", "rr", "bus", 69},
		{"jacobi", "adaptive", "migrate", "bus", 73},
		{"jacobi", "home", "migrate", "ideal", 68},
		{"water", "adaptive", "firsttouch", "bus", 223},
	} {
		name := c.app + "/" + c.protocol + "/" + c.placement + "/" + c.network
		t.Run(name, func(t *testing.T) {
			e, ok := apps.Lookup(c.app, "small")
			if !ok {
				t.Fatalf("%s/small is not registered", c.app)
			}
			w := e.Make(8)
			sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, Protocol: c.protocol, Placement: c.placement, Network: c.network})
			if err != nil {
				t.Fatal(err)
			}
			// One processor and no GC mid-run: a contended network's
			// run follows the host's schedule, and so does what it
			// allocates.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			best := steadyMallocs(func() uint64 { return trialMallocs(sys, w.Body) })
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d mallocs", best)
			if best > c.budget {
				t.Errorf("steady-state %s trial: %d mallocs, budget %d", name, best, c.budget)
			}
		})
	}
}
