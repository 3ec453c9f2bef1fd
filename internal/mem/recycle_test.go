package mem_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// poisoned empties the recycler and makes every buffer released during
// the test come back full of 0xA5.
func poisoned(t *testing.T) {
	mem.ResetPool()
	was := mem.SetPoolPoison(true)
	t.Cleanup(func() {
		mem.SetPoolPoison(was)
		mem.ResetPool()
	})
}

// totals is what a run must reproduce whether its pages are new or
// recycled.
type totals struct {
	msgs, bytes                  int
	time                         int64
	faults, twins, diffs, ivals  int
	useful, useless, piggybacked int
}

func totalsOf(r *tmk.Result) totals {
	t := totals{msgs: r.Messages, bytes: r.Bytes, time: int64(r.Time),
		faults: r.Faults, twins: r.Twins, diffs: r.DiffsEncoded, ivals: r.Intervals}
	if r.Stats != nil {
		t.useful, t.useless, t.piggybacked = r.Stats.UsefulBytes, r.Stats.UselessBytes, r.Stats.PiggybackedBytes
	}
	return t
}

type cell struct {
	e   apps.Entry
	cfg tmk.Config
}

func (c cell) String() string {
	unit := fmt.Sprintf("%dK", 4*c.cfg.UnitPages)
	if c.cfg.Dynamic {
		unit = "Dyn"
	}
	return fmt.Sprintf("%s/%s/%s", c.e.App, c.cfg.Protocol, unit)
}

// smallCells is every registered application's small dataset under
// every protocol at the 4 KB and 16 KB units and under dynamic
// aggregation, instrumentation on.
func smallCells(t *testing.T) []cell {
	var cells []cell
	for _, app := range apps.Apps() {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", app)
		}
		for _, proto := range tmk.ProtocolNames() {
			for _, u := range []tmk.Config{{UnitPages: 1}, {UnitPages: 4}, {UnitPages: 1, Dynamic: true}} {
				u.Procs, u.Protocol, u.Collect = 8, proto, true
				cells = append(cells, cell{e, u})
			}
		}
	}
	return cells
}

// fresh runs a cell on a System that is never released, so nothing it
// used came from or goes to the recycler.
func fresh(t *testing.T, c cell) totals {
	t.Helper()
	w := c.e.Make(c.cfg.Procs)
	sys, err := apps.NewSystem(w, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(w.Body)
	if err := w.Check(); err != nil {
		t.Fatalf("%v (fresh): %v", c, err)
	}
	return totalsOf(res)
}

// TestRecycledRunsMatchFresh runs every small cell back to back through
// apps.Run, each on the poisoned pages the ones before it released: all
// must pass their Check and reproduce the totals of a run on fresh
// memory (the lock applications too: locks are granted in virtual-time
// order). Write-set buffers come
// from the same list and are never cleared, so a stretch of one that
// its write set never saved is 0xA5 throughout: an encoder that read it
// would diff words no one wrote and move the byte totals.
func TestRecycledRunsMatchFresh(t *testing.T) {
	poisoned(t)
	cells := smallCells(t)
	want := make([]totals, len(cells))
	for i, c := range cells {
		want[i] = fresh(t, c)
	}
	if st := mem.PoolStats(); st.Pages != 0 || st.Hits != 0 {
		t.Fatalf("Systems dropped without Release reached the recycler: %+v", st)
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range cells {
			res, err := apps.Run(c.e.Make(c.cfg.Procs), c.cfg)
			if err != nil {
				t.Errorf("%v on recycled pages: %v", c, err)
				continue
			}
			if got := totalsOf(res); got != want[i] {
				t.Errorf("%v on recycled pages: totals %+v, fresh %+v", c, got, want[i])
			}
		}
	}
	if st := mem.PoolStats(); st.Hits == 0 || st.Pages == 0 {
		t.Fatalf("the runs did not go through the recycler: %+v", st)
	}
}

func TestReleaseIsIdempotentAndFinal(t *testing.T) {
	poisoned(t)
	e, _ := apps.Lookup("jacobi", "small")
	w := e.Make(4)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(w.Body)
	sys.Release()
	after := mem.PoolStats()
	if after.Pages == 0 {
		t.Fatal("Release listed nothing")
	}
	sys.Release()
	if again := mem.PoolStats(); again != after {
		t.Fatalf("second Release changed the recycler: %+v, then %+v", after, again)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "released System") {
			t.Fatalf("Run after Release: recovered %q, want a panic naming the released System", msg)
		}
	}()
	sys.Run(w.Body)
}

// TestConcurrentCellsShareTheRecycler runs cells from several goroutines
// at once, each taking the poisoned pages the others release. Run it
// under -race -cpu 1,4.
func TestConcurrentCellsShareTheRecycler(t *testing.T) {
	poisoned(t)
	var exps []harness.Experiment
	for _, app := range []string{"jacobi", "mgs", "3d-fft", "shallow"} {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", app)
		}
		exps = append(exps, harness.Experiment{App: e.App, Dataset: e.Dataset, Make: e.Make})
	}
	cfgs := harness.Configs()
	want := make(map[string]harness.Cell)
	for _, e := range exps {
		for _, c := range cfgs {
			cell, err := harness.Run(e, c, 4)
			if err != nil {
				t.Fatal(err)
			}
			cell.Stats = nil
			want[e.App+c.Label] = cell
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range exps {
				e := exps[(i+g)%len(exps)]
				for _, c := range cfgs {
					cell, err := harness.Run(e, c, 4)
					if err != nil {
						t.Errorf("%s %s: %v", e.App, c.Label, err)
						continue
					}
					cell.Stats = nil
					if cell != want[e.App+c.Label] {
						t.Errorf("%s %s: %+v alone, %+v beside other cells", e.App, c.Label, want[e.App+c.Label], cell)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTrialsHoldAFlatHeap pins that a System's diff slabs rewind at
// Reset and its frames go round through the recycler: forty more trials
// must not leave the heap measurably above where ten left it.
func TestTrialsHoldAFlatHeap(t *testing.T) {
	mem.ResetPool()
	e, _ := apps.Lookup("jacobi", "small")
	w := e.Make(8)
	sys, err := apps.NewSystem(w, tmk.Config{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	heapAfter := func(trials int) (inUse, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < trials; i++ {
			sys.Run(w.Body)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return after.HeapAlloc, after.TotalAlloc - before.TotalAlloc
	}
	base, _ := heapAfter(10)
	end, allocated := heapAfter(40)
	// One trial's diffs alone are more than the slack allowed here.
	const slack = 256 << 10
	if end > base+slack {
		t.Fatalf("heap in use grew from %d to %d bytes over 40 trials (%d allocated)", base, end, allocated)
	}
}
