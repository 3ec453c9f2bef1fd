package tmk

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/vc"
)

// TestAllocBudgetBarrierEpisode drives barrier episodes of a 64-processor
// sparse System by hand — every processor writes its page and closes the
// interval, the fabric's register merges the arrivals, finishEpisode
// builds the episode, every processor consumes the grant, every
// processor reads its neighbour's page again — and counts the heap
// objects finishEpisode and applyBarrierGrant allocate once the buffers
// have their size: the episode's merged vector time and its Epoch, which
// outlive the episode in every stamp based on them, and nothing else —
// in particular nothing per processor. The cheapest episode counts: the
// runtime's own allocations (a collection starting) can only add to one.
func TestAllocBudgetBarrierEpisode(t *testing.T) {
	const (
		procs  = 64
		warm   = 4
		timed  = 16
		budget = 2
	)
	sys, err := NewSystem(Config{Procs: procs, SegmentBytes: procs * mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	base := sys.AllocPages(procs)
	page := func(k int) mem.Addr { return base + mem.Addr(k%procs*mem.PageSize) }
	tk := vc.NewTracked(procs) // the barrier fabric's register

	best := ^uint64(0)
	for ep := 1; ep <= warm+timed; ep++ {
		for _, p := range sys.procs {
			p.WriteI64(page(p.id), int64(ep))
			p.closeInterval()
			tk.MergeStamp(p.tk.Snapshot(&p.arena))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := sys.finishEpisode(tk, ep)
		for _, p := range sys.procs {
			p.applyBarrierGrant(g)
		}
		runtime.ReadMemStats(&after)
		if ep > warm {
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if g.notices != procs {
			t.Fatalf("episode %d carries %d notices, want %d", ep, g.notices, procs)
		}
		for _, p := range sys.procs {
			if p.pt.State(p.id) == mem.Invalid || p.pt.State((p.id+1)%procs) != mem.Invalid {
				t.Fatalf("episode %d: processor %d holds its own page %v and its neighbour's %v",
					ep, p.id, p.pt.State(p.id), p.pt.State((p.id+1)%procs))
			}
			if got := p.ReadI64(page(p.id + 1)); got != int64(ep) {
				t.Fatalf("episode %d: processor %d read %d from its neighbour", ep, p.id, got)
			}
		}
	}
	if best > budget {
		t.Errorf("finishEpisode + applyBarrierGrant allocate %d objects per episode of %d processors, budget %d",
			best, procs, budget)
	}
}
