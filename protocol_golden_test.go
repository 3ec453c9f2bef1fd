//go:build !race

// Golden-count regression tests for the protocol- and placement-layer
// refactors: the homeless protocol must reproduce the pre-refactor
// engine's message and byte counts exactly (values recorded from
// `dsmrun -json` at commit 60f6268, before the Protocol interface was
// extracted), and the home protocol under the default round-robin
// placement must reproduce the pre-placement-layer counts exactly
// (values recorded at commit feb88a8, before homeOf moved behind the
// Placement policy).
//
// Excluded under the race detector: the TSP counts depend on lock
// hand-off order, which is perturbed by -race instrumentation (see the
// TrialSummary doc in internal/tmk). Above one core that order follows
// the host's scheduling (ROADMAP item 1), so, as in
// TestScaleModesEquivalent, the lock programs' subtests pin GOMAXPROCS
// to 1 and switch the collector off while they run.

package dsm

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/sim"
	"repro/internal/tmk"
)

func TestHomelessGoldenCounts(t *testing.T) {
	goldens := []struct {
		app, dataset string
		messages     int
		bytes        int
		time         sim.Duration // 0 = not asserted
	}{
		// dsmrun -app jacobi -dataset small -json @ 60f6268
		{"Jacobi", "small", 294, 500952, 46004895 * sim.Nanosecond},
		// dsmrun -app tsp -dataset small -json @ 60f6268
		{"TSP", "small", 94, 45116, 0},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.app, func(t *testing.T) {
			e, ok := apps.Lookup(g.app, g.dataset)
			if !ok {
				t.Fatalf("%s/%s not registered", g.app, g.dataset)
			}
			if e.Make(8).Locks() > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
			}
			res, err := apps.Run(e.Make(8), tmk.Config{
				Procs: 8, UnitPages: 1, Protocol: "homeless", Collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != g.messages {
				t.Errorf("messages = %d, want pre-refactor %d", res.Messages, g.messages)
			}
			if res.Bytes != g.bytes {
				t.Errorf("bytes = %d, want pre-refactor %d", res.Bytes, g.bytes)
			}
			if g.time != 0 && res.Time != g.time {
				t.Errorf("time = %v, want pre-refactor %v", res.Time, g.time)
			}
		})
	}
}

func TestHomeRRGoldenCounts(t *testing.T) {
	goldens := []struct {
		app, dataset string
		messages     int
		bytes        int
		time         sim.Duration // 0 = not asserted
	}{
		// dsmrun -app jacobi -dataset small -protocol home -json @ feb88a8
		{"Jacobi", "small", 307, 848112, 67212680 * sim.Nanosecond},
		// dsmrun -app tsp -dataset small -protocol home -json @ feb88a8
		{"TSP", "small", 161, 78904, 0},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.app, func(t *testing.T) {
			e, ok := apps.Lookup(g.app, g.dataset)
			if !ok {
				t.Fatalf("%s/%s not registered", g.app, g.dataset)
			}
			if e.Make(8).Locks() > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
			}
			res, err := apps.Run(e.Make(8), tmk.Config{
				Procs: 8, UnitPages: 1, Protocol: "home", Placement: "rr", Collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != g.messages {
				t.Errorf("messages = %d, want pre-placement-layer %d", res.Messages, g.messages)
			}
			if res.Bytes != g.bytes {
				t.Errorf("bytes = %d, want pre-placement-layer %d", res.Bytes, g.bytes)
			}
			if g.time != 0 && res.Time != g.time {
				t.Errorf("time = %v, want pre-placement-layer %v", res.Time, g.time)
			}
			if res.Rehomes != 0 || res.RehomeBytes != 0 {
				t.Errorf("rr placement rehomed: %d moves, %d bytes", res.Rehomes, res.RehomeBytes)
			}
		})
	}
}
