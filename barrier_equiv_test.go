// Equivalence tests for the scaling representations introduced with the
// sparse-clock work: the sparse engine mode must be observationally
// identical to the dense reference (same messages, bytes, simulated
// time), and every tree-barrier radix must leave the protocol in the
// same state as the centralized golden fabric (same per-episode merged
// vector times, same faults/twins/diffs/intervals, same application
// results) even though its message fabric — and therefore its timing —
// differs by design.
//
// These run under the race detector too — the episode's shared delta and
// written-unit index are written by one goroutine and read by all the
// others, which is what it is for. The cells of the two lock
// applications run there and at every GOMAXPROCS as well: locks are
// granted in virtual-time order, so their counts do not depend on how
// the host schedules the processors.

package dsm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/mem"
	"repro/internal/tmk"
	"repro/internal/vc"
)

// loggedRun is what one workload cell left behind: the result, a deep
// copy of the barrier log (the System is rebuilt per call, but copying
// keeps the comparison independent of engine internals) and every
// processor's final page table.
type loggedRun struct {
	*tmk.Result
	log    []vc.Time
	states [][]mem.PageState
}

func runCell(t *testing.T, app, dataset string, procs int, cfg tmk.Config) loggedRun {
	t.Helper()
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		t.Fatalf("%s/%s not registered", app, dataset)
	}
	w := e.Make(procs)
	cfg.Procs = procs
	cfg.Collect = true
	sys, err := apps.NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := loggedRun{Result: sys.Run(w.Body)}
	if err := w.Check(); err != nil {
		t.Fatalf("%s/%s check: %v", app, dataset, err)
	}
	for _, vt := range sys.BarrierLog() {
		out.log = append(out.log, vt.Clone())
	}
	for p := 0; p < procs; p++ {
		out.states = append(out.states, sys.PageStates(p))
	}
	return out
}

// runLogged is runCell for the callers that compare results and barrier
// logs only.
func runLogged(t *testing.T, app, dataset string, procs int, cfg tmk.Config) (*tmk.Result, []vc.Time) {
	t.Helper()
	r := runCell(t, app, dataset, procs, cfg)
	return r.Result, r.log
}

// TestScaleModesEquivalent pins the substitution claim of the sparse
// engine — epoch-relative stamps, deviation-driven deltas, lazy
// replicas, fault-time notice reconstruction, and a barrier that walks
// the units a processor holds against the episode's written-unit index
// instead of every notice — against the dense reference, which still
// visits every notice: messages, wire bytes, simulated time, faults,
// intervals, diffs, the per-episode barrier log and every processor's
// final page table must be equal, for every registered application's
// small dataset under every protocol, unit size and barrier fabric at 8
// processors, and for Storm also at 64 (where the held-unit walk, not
// the notice walk, is the shorter side of every write-phase barrier).
func TestScaleModesEquivalent(t *testing.T) {
	units := []struct {
		name    string
		pages   int
		dynamic bool
	}{{"unit1", 1, false}, {"unit4", 4, false}, {"dynamic", 1, true}}
	barriers := []struct {
		name, fabric string
		radix        int
	}{{"central", "central", 0}, {"tree4", "tree", 4}}
	for _, app := range apps.Apps() {
		if _, ok := apps.Lookup(app, "small"); !ok {
			t.Fatalf("%s/small not registered", app)
		}
		sizes := []int{8}
		if app == "Storm" {
			sizes = []int{8, 64}
		}
		for _, protocol := range []string{"homeless", "home", "adaptive"} {
			t.Run(app+"/"+protocol, func(t *testing.T) {
				for _, procs := range sizes {
					for _, u := range units {
						for _, b := range barriers {
							t.Run(fmt.Sprintf("%s/%s/p%d", u.name, b.name, procs), func(t *testing.T) {
								cfg := tmk.Config{
									UnitPages: u.pages, Dynamic: u.dynamic, Protocol: protocol,
									Barrier: b.fabric, BarrierRadix: b.radix, Scale: tmk.ScaleDense,
								}
								dense := runCell(t, app, "small", procs, cfg)
								cfg.Scale = tmk.ScaleSparse
								sparse := runCell(t, app, "small", procs, cfg)
								compareRuns(t, dense, sparse)
							})
						}
					}
				}
			})
		}
	}
}

func compareRuns(t *testing.T, dense, sparse loggedRun) {
	t.Helper()
	if sparse.Messages != dense.Messages || sparse.Bytes != dense.Bytes {
		t.Errorf("wire totals differ: sparse %d msgs/%d B, dense %d msgs/%d B",
			sparse.Messages, sparse.Bytes, dense.Messages, dense.Bytes)
	}
	if sparse.Time != dense.Time {
		t.Errorf("simulated time differs: sparse %v, dense %v", sparse.Time, dense.Time)
	}
	if sparse.Faults != dense.Faults || sparse.Intervals != dense.Intervals ||
		sparse.DiffsEncoded != dense.DiffsEncoded {
		t.Errorf("engine events differ: sparse %d/%d/%d, dense %d/%d/%d",
			sparse.Faults, sparse.Intervals, sparse.DiffsEncoded,
			dense.Faults, dense.Intervals, dense.DiffsEncoded)
	}
	compareBarrierLogs(t, dense.log, sparse.log)
	for p := range dense.states {
		if !reflect.DeepEqual(dense.states[p], sparse.states[p]) {
			t.Errorf("processor %d ends with a different page table:\n sparse %v\n dense  %v",
				p, sparse.states[p], dense.states[p])
			return
		}
	}
}

// TestTreeBarrierEquivalence pins the tree fabric against the
// centralized golden reference: for radices 2, 4, and 8 the per-episode
// merged vector times and the protocol's event counts must match
// exactly — the fabric changes who carries which message, never what
// the barrier means.
func TestTreeBarrierEquivalence(t *testing.T) {
	cells := []struct {
		app, dataset string
		procs        int
	}{
		{"Jacobi", "small", 8},
		{"Jacobi", "small", 64},
		{"TSP", "small", 8},
	}
	for _, c := range cells {
		c := c
		t.Run(c.app, func(t *testing.T) {
			central, centralLog := runLogged(t, c.app, c.dataset, c.procs,
				tmk.Config{UnitPages: 1, Barrier: "central"})
			if len(centralLog) == 0 {
				t.Fatal("no barrier episodes recorded under Collect")
			}
			for _, radix := range []int{2, 4, 8} {
				tree, treeLog := runLogged(t, c.app, c.dataset, c.procs,
					tmk.Config{UnitPages: 1, Barrier: "tree", BarrierRadix: radix})
				compareBarrierLogs(t, centralLog, treeLog)
				if tree.Faults != central.Faults || tree.Twins != central.Twins ||
					tree.Intervals != central.Intervals || tree.DiffsEncoded != central.DiffsEncoded {
					t.Errorf("radix %d: engine events differ: tree %d/%d/%d/%d, central %d/%d/%d/%d",
						radix, tree.Faults, tree.Twins, tree.Intervals, tree.DiffsEncoded,
						central.Faults, central.Twins, central.Intervals, central.DiffsEncoded)
				}
				// 2(n-1) barrier legs per episode vs the centralized 2n.
				legsPerEpisode := 2 * (c.procs - 1)
				if wantFewer := 2 * c.procs; legsPerEpisode >= wantFewer && c.procs > 1 {
					t.Fatalf("tree fabric must use fewer legs (%d vs %d)", legsPerEpisode, wantFewer)
				}
				if tree.Messages >= central.Messages && c.procs > 1 && c.app == "Jacobi" {
					t.Errorf("radix %d: tree sent %d messages, central %d — expected fewer barrier legs",
						radix, tree.Messages, central.Messages)
				}
			}
		})
	}
}

func compareBarrierLogs(t *testing.T, want, got []vc.Time) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("barrier episode count differs: want %d, got %d", len(want), len(got))
		return
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Errorf("episode %d merged time differs: want %v, got %v", i+1, want[i], got[i])
			return
		}
	}
}
