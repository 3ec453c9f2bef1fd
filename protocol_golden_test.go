// Golden-count regression tests for the protocol- and placement-layer
// refactors: the homeless protocol must reproduce the pre-refactor
// engine's message and byte counts exactly (values recorded from
// `dsmrun -json` at commit 60f6268, before the Protocol interface was
// extracted), and the home protocol under the default round-robin
// placement must reproduce the pre-placement-layer counts exactly
// (values recorded at commit feb88a8, before homeOf moved behind the
// Placement policy).
//
// The TSP rows were recorded again when locks began to be granted in
// virtual-time order (internal/tmk/gate.go, commit 7b0f2fa):
// the earlier values were one host schedule's. These are the same at
// every GOMAXPROCS and under the race detector.

package dsm

import (
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
		// dsmrun -app tsp -dataset small -json, locks in virtual-time
		// order (was 94 messages and 45,116 bytes @ 60f6268, in one
		// host schedule)
		{"TSP", "small", 1005, 72664, 0},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.app, func(t *testing.T) {
			e, ok := apps.Lookup(g.app, g.dataset)
			if !ok {
				t.Fatalf("%s/%s not registered", g.app, g.dataset)
			}
			res, err := apps.Run(e.Make(8), tmk.Config{
				Procs: 8, UnitPages: 1, Protocol: "homeless", Collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != g.messages {
				t.Errorf("messages = %d, want golden %d", res.Messages, g.messages)
			}
			if res.Bytes != g.bytes {
				t.Errorf("bytes = %d, want golden %d", res.Bytes, g.bytes)
			}
			if g.time != 0 && res.Time != g.time {
				t.Errorf("time = %v, want golden %v", res.Time, g.time)
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
		// dsmrun -app tsp -dataset small -protocol home -json, locks in
		// virtual-time order (was 161 messages and 78,904 bytes @
		// feb88a8, in one host schedule)
		{"TSP", "small", 578, 466140, 0},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.app, func(t *testing.T) {
			e, ok := apps.Lookup(g.app, g.dataset)
			if !ok {
				t.Fatalf("%s/%s not registered", g.app, g.dataset)
			}
			res, err := apps.Run(e.Make(8), tmk.Config{
				Procs: 8, UnitPages: 1, Protocol: "home", Placement: "rr", Collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != g.messages {
				t.Errorf("messages = %d, want golden %d", res.Messages, g.messages)
			}
			if res.Bytes != g.bytes {
				t.Errorf("bytes = %d, want golden %d", res.Bytes, g.bytes)
			}
			if g.time != 0 && res.Time != g.time {
				t.Errorf("time = %v, want golden %v", res.Time, g.time)
			}
			if res.Rehomes != 0 || res.RehomeBytes != 0 {
				t.Errorf("rr placement rehomed: %d moves, %d bytes", res.Rehomes, res.RehomeBytes)
			}
		})
	}
}
