package tmk_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// TestHomeImagesMatchFlushLog runs the home engine's earlier versioned
// log beside the interval store (System.CheckHomeImages) and requires
// every page a home fetch refreshes, as the reader holds it after the
// fetch, to equal the log's image at the reader's vector time. The
// oracle holds for data-race-free programs, which the applications
// are. The cells are the home, adaptive and migrating configurations of
// the barrier applications (Jacobi, Barnes, Storm) and the lock-based
// ones (TSP, Water), at units of 1, 2 and 4 pages, on both clock
// representations. Adaptive runs on bus, where the contention gate lets
// units switch; not every adaptive cell fetches from a home. A fetch
// that loses a write can leave an application spinning on a value that
// never arrives, so each cell runs under a deadline (cellDeadline).
func TestHomeImagesMatchFlushLog(t *testing.T) {
	configs := []tmk.Config{
		{Protocol: "home"},
		{Protocol: "home", Placement: "migrate"},
		{Protocol: "adaptive", Network: "bus"},
		{Protocol: "adaptive", Placement: "migrate", Network: "bus"},
	}
	handoffs, rehomeBytes := 0, 0
	for _, app := range []string{"Jacobi", "Water", "TSP", "Barnes", "Storm"} {
		for _, base := range configs {
			for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
				for _, up := range []int{1, 2, 4} {
					cfg := base
					cfg.Procs, cfg.UnitPages, cfg.Scale = 8, up, scale
					name := fmt.Sprintf("%s/%s/%s/%s/%s/u%d", app, cfg.Protocol, cfg.Placement, cfg.Network, scale, up)
					e, ok := apps.Lookup(app, "small")
					if !ok {
						t.Fatalf("%s/small is not registered", app)
					}
					w := e.Make(cfg.Procs)
					sys, err := apps.NewSystem(w, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					check := sys.CheckHomeImages()
					done := make(chan *tmk.Result, 1)
					go func() { done <- sys.Run(w.Body) }()
					var res *tmk.Result
					select {
					case res = <-done:
					case <-time.After(cellDeadline):
						_, _, err := check.Counts()
						t.Fatalf("%s: still running after %v; first image mismatch: %v", name, cellDeadline, err)
					}
					if err := w.Check(); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					images, h, err := check.Counts()
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
					if images == 0 && cfg.Protocol == "home" {
						t.Errorf("%s: the home engine fetched no page", name)
					}
					handoffs += h
					if cfg.Placement == "migrate" {
						rehomeBytes += res.RehomeBytes
					}
					sys.Release()
				}
			}
		}
	}
	if handoffs == 0 || rehomeBytes == 0 {
		t.Errorf("the cells never priced a handoff or a migration: %d handoffs, %d migrated bytes", handoffs, rehomeBytes)
	}
}

// cellDeadline bounds one TestHomeImagesMatchFlushLog cell, whose runs
// take milliseconds.
const cellDeadline = 60 * time.Second

// orderSink is a MemSink that closes entered once processor 1 enters a
// barrier, which it does after publishing the interval the barrier
// closed.
type orderSink struct {
	*trace.MemSink
	once    sync.Once
	entered chan struct{}
}

func (s *orderSink) BarrierEnter(p int, at sim.Duration) {
	s.MemSink.BarrierEnter(p, at)
	if p == 1 {
		s.once.Do(func() { close(s.entered) })
	}
}

// TestHomeImageOrdersRacingWritesCausally has processors 0 and 1 write
// the same word in one phase, processor 0 publishing its interval after
// processor 1's, and processor 2 read it through a home fetch after the
// barrier. The fetch misses both intervals at once, and the race is
// settled by the causal key: both intervals have the same vector-entry
// sum, so processor 1's applies last. The five applications never show
// this — their concurrent diffs touch disjoint words, and the store
// publishes causally ordered intervals in causal order — so here writes
// applied in publish order would differ from the flush log's image, and
// read processor 0's value.
func TestHomeImageOrdersRacingWritesCausally(t *testing.T) {
	sink := &orderSink{MemSink: trace.NewMemSink(), entered: make(chan struct{})}
	sys, err := tmk.NewSystem(tmk.Config{Procs: 3, Protocol: "home", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Alloc(mem.PageSize)
	check := sys.CheckHomeImages()
	var got int64
	sys.Run(func(p *tmk.Proc) {
		switch p.ID() {
		case 0:
			<-sink.entered
			p.WriteI64(base, 100)
		case 1:
			p.WriteI64(base, 101)
		}
		p.Barrier()
		if p.ID() == 2 {
			got = p.ReadI64(base)
		}
	})
	images, _, err := check.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if images == 0 {
		t.Fatal("processor 2 read without a home fetch")
	}
	if got != 101 {
		t.Errorf("processor 2 read %d, want processor 1's 101", got)
	}
}

// TestRacingWritesReadAsMissed has processor 1 write a word under a
// lock and processor 0 write it concurrently, without synchronization;
// processor 2 reads it through the lock, then again after a barrier.
// LRC leaves the outcome of the race undefined. Both protocols apply
// the writes the reader misses over the reader's copy, so both read
// processor 1's 101 through the lock and processor 0's 100, the one
// write the barrier adds, after it. (A home image rebuilt from the
// whole history reads 101 again: the causal key orders processor 1's
// write last.)
func TestRacingWritesReadAsMissed(t *testing.T) {
	for _, proto := range []string{"homeless", "home"} {
		sys, err := tmk.NewSystem(tmk.Config{Procs: 3, Locks: 1, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		base := sys.Alloc(mem.PageSize)
		var locked, after int64
		sys.Run(func(p *tmk.Proc) {
			switch p.ID() {
			case 0:
				p.WriteI64(base, 100)
			case 1:
				p.Lock(0)
				p.WriteI64(base, 101)
				p.Unlock(0)
			case 2:
				p.Compute(1 << 20) // locks are granted in virtual-time order: processor 1's first
				p.Lock(0)
				locked = p.ReadI64(base)
				p.Unlock(0)
			}
			p.Barrier()
			if p.ID() == 2 {
				after = p.ReadI64(base)
			}
		})
		if locked != 101 || after != 100 {
			t.Errorf("%s: processor 2 read %d through the lock and %d after the barrier, want 101 and 100", proto, locked, after)
		}
		sys.Release()
	}
}
