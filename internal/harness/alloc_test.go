package harness

import (
	"runtime"
	"testing"

	"repro/internal/apps"
)

// TestAllocBudgetSecondCell pins what cells leave each other: the
// second and later identical harness.Run of a small cell takes its
// frames, twins and diff-slab chunks from the pages the one before
// released (mem's recycler) instead of allocating them.
//
// The constants are what the same loop measured at the commit before
// the recycler (PR 16's engine: every cell allocated all of its own
// memory), minimum of five runs. Bytes must stay under 52 % of that for
// Jacobi and 56 % for 3D-FFT (measured up to 47 % and 53 % at 1–8
// GOMAXPROCS, since the network keeps no per-message log for the
// collector to walk). Objects must stay under 70 % for 3D-FFT
// (measured 37 %: its per-call buffer boxing and per-page diff
// allocations are gone) and under 75 % for Jacobi (measured 67 %):
// what is left of a small Jacobi cell's object count is per-processor
// construction and the collector's per-fault records, which no
// recycler reaches.
func TestAllocBudgetSecondCell(t *testing.T) {
	for _, c := range []struct {
		app                        string
		parentBytes, parentMallocs uint64
		bytesPct, mallocsPct       uint64
	}{
		{"jacobi", 2765632, 2185, 52, 75},
		{"3d-fft", 1831352, 4359, 56, 70},
	} {
		e, ok := apps.Lookup(c.app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", c.app)
		}
		exp := Experiment{App: e.App, Dataset: e.Dataset, Make: e.Make}
		cfg := Configs()[0]
		run := func() {
			if _, err := Run(exp, cfg, Procs); err != nil {
				t.Fatal(err)
			}
		}
		run() // the first cell fills the recycler
		// A collection mid-run or an unlucky schedule can only add
		// allocations, never hide any: take the minimum.
		bytes, mallocs := ^uint64(0), ^uint64(0)
		for i := 0; i < 5; i++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		if limit := c.parentBytes * c.bytesPct / 100; bytes > limit {
			t.Errorf("%s/small, second cell: %d bytes allocated, budget %d (%d %% of %d)", c.app, bytes, limit, c.bytesPct, c.parentBytes)
		}
		if limit := c.parentMallocs * c.mallocsPct / 100; mallocs > limit {
			t.Errorf("%s/small, second cell: %d objects allocated, budget %d (%d %% of %d)", c.app, mallocs, limit, c.mallocsPct, c.parentMallocs)
		}
		t.Logf("%s/small, second cell: %d bytes (%d %%), %d objects (%d %%)", c.app,
			bytes, 100*bytes/c.parentBytes, mallocs, 100*mallocs/c.parentMallocs)
	}
}
