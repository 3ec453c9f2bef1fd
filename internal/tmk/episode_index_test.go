package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/lrc"
	"repro/internal/tmk"
)

// mapEvidence is the barrier's writer evidence distilled the way the
// adaptive policy and the placement rehomer once did it, each on its own
// walk of the episode delta: the rehomer's per-unit accumulator with a
// map of interval counts per processor and the dominant scan over every
// processor id, the adaptive policy's map of each unit's intervals and
// its last-writer map, and the map-based concurrent-writer count.
func mapEvidence(delta []*lrc.Interval, procs int) map[int]tmk.UnitEvidence {
	type acc struct {
		first, last, intervals int
		counts                 map[int]int
	}
	byUnit := make(map[int]*acc)
	for _, iv := range delta {
		for _, u := range iv.Units {
			a := byUnit[u]
			if a == nil {
				a = &acc{first: iv.ID.Proc, counts: make(map[int]int)}
				byUnit[u] = a
			}
			a.last = iv.ID.Proc
			a.intervals++
			a.counts[iv.ID.Proc]++
		}
	}
	ivsOf := make(map[int][]*lrc.Interval)
	lastWriter := make(map[int]int)
	for _, iv := range delta {
		for _, u := range iv.Units {
			ivsOf[u] = append(ivsOf[u], iv)
			lastWriter[u] = iv.ID.Proc
		}
	}
	out := make(map[int]tmk.UnitEvidence)
	for u, a := range byUnit {
		best, bestN := -1, 0
		for pr := 0; pr < procs; pr++ {
			if n := a.counts[pr]; n > bestN {
				best, bestN = pr, n
			}
		}
		writer := -1
		if len(a.counts) == 1 {
			writer = a.first
		}
		if lastWriter[u] != a.last || len(ivsOf[u]) != a.intervals {
			panic("the two map distillations disagree")
		}
		out[u] = tmk.UnitEvidence{
			Unit:       u,
			Writer:     writer,
			First:      a.first,
			Dominant:   best,
			Last:       lastWriter[u],
			Concurrent: mapConcurrentWriters(ivsOf[u]),
			Intervals:  a.intervals,
		}
	}
	return out
}

func mapConcurrentWriters(ivs []*lrc.Interval) int {
	procs := make(map[int]bool)
	for i, a := range ivs {
		for _, b := range ivs[i+1:] {
			if a.ID.Proc != b.ID.Proc && a.TS.Concurrent(b.TS) {
				procs[a.ID.Proc] = true
				procs[b.ID.Proc] = true
			}
		}
	}
	return len(procs)
}

// TestEpisodeIndexMatchesMapDistillation rebuilds every barrier
// episode's delta of a run from its barrier log and the interval store,
// indexes it as the barrier's decision pass does, and requires every
// written unit's evidence — sole writer, first, dominant (ties to the
// lowest id), last, concurrent-writer count and interval count — to
// equal the map-based distillation's, over the home-based protocols ×
// the moving placements × four applications × two networks × both
// clock representations.
func TestEpisodeIndexMatchesMapDistillation(t *testing.T) {
	for _, app := range []string{"jacobi", "water", "barnes", "tsp"} {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", app)
		}
		for _, protocol := range []string{"home", "adaptive"} {
			for _, placement := range []string{"rr", "firsttouch", "migrate"} {
				for _, network := range []string{"ideal", "bus"} {
					for _, scale := range []string{"sparse", "dense"} {
						name := fmt.Sprintf("%s/%s/%s/%s/%s", app, protocol, placement, network, scale)
						t.Run(name, func(t *testing.T) {
							w := e.Make(8)
							sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, Protocol: protocol, Placement: placement,
								Network: network, Scale: scale, Collect: true})
							if err != nil {
								t.Fatal(err)
							}
							sys.Run(w.Body)
							if err := w.Check(); err != nil {
								t.Fatal(err)
							}
							checkEpisodeIndex(t, sys)
						})
					}
				}
			}
		}
	}
}

func checkEpisodeIndex(t *testing.T, sys *tmk.System) {
	t.Helper()
	units := 0
	for ep, delta := range sys.EpisodeDeltas() {
		want := mapEvidence(delta, sys.Config().Procs)
		got := sys.IndexEvidence(delta)
		if len(got) != len(want) {
			t.Fatalf("episode %d: the index lists %d written units, the maps %d", ep+1, len(got), len(want))
		}
		for i, g := range got {
			if i > 0 && got[i-1].Unit >= g.Unit {
				t.Fatalf("episode %d: units out of order: %d after %d", ep+1, g.Unit, got[i-1].Unit)
			}
			if w := want[g.Unit]; g != w {
				t.Fatalf("episode %d unit %d: index %+v, maps %+v", ep+1, g.Unit, g, w)
			}
		}
		units += len(got)
	}
	if units == 0 {
		t.Fatal("no barrier episode wrote a unit")
	}
}
