package tsp

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Cities: 10, ForkDepth: 3, Procs: 8} }

func mustRun(t *testing.T, c Config, ec tmk.Config) *tmk.Result {
	t.Helper()
	a := New(c)
	res, err := apps.Run(a, ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSequentialSolverOnTinyInstance(t *testing.T) {
	// 4 cities: optimum computable by hand from the distance matrix.
	a := New(Config{Cities: 4, ForkDepth: 2, Procs: 2})
	d := a.dist
	best := int64(1) << 40
	perms := [][]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	for _, p := range perms {
		c := d[0][p[0]] + d[p[0]][p[1]] + d[p[1]][p[2]] + d[p[2]][0]
		if c < best {
			best = c
		}
	}
	if got := a.Sequential(); got != best {
		t.Fatalf("Sequential = %d, want %d", got, best)
	}
}

func TestFindsOptimumAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestFindsOptimumWithDynamicAggregation(t *testing.T) {
	if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestFindsOptimumFewProcs(t *testing.T) {
	for _, procs := range []int{1, 2} {
		c := small()
		c.Procs = procs
		if _, err := apps.Run(New(c), tmk.Config{Procs: procs, Collect: true}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

// Repeat runs: work order varies but the optimum never does.
func TestOptimumStableAcrossRuns(t *testing.T) {
	for i := 0; i < 3; i++ {
		mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	}
}

// Migratory tours: consumers fetch pool pages written by other
// processors; colocated records they skip become useless data.
func TestMigratoryDataProducesUselessBytes(t *testing.T) {
	res := mustRun(t, Config{Cities: 11, ForkDepth: 3, Procs: 8},
		tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	if res.Stats.PiggybackedBytes+res.Stats.UselessBytes == 0 {
		t.Fatal("expected useless data from skipped colocated tour records")
	}
}

// The registry entry is the workload's only name: "TSP" builds this
// package's App.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("TSP", "")
	if !ok {
		t.Fatal("TSP is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("TSP does not build this package's App")
	}
	a := New(small())
	if a.Locks() != numLocks {
		t.Fatalf("locks = %d, want %d", a.Locks(), numLocks)
	}
}

func TestTooManyCitiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Cities: 20})
}
