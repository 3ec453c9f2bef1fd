package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	dsm "repro"
	"repro/internal/aggregate"
	"repro/internal/apps"
	"repro/internal/expsvc"
	"repro/internal/harness"
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/vc"
)

// A probe times one layer from outside: a loop over the layer's public
// functions with inputs shaped like the workload that leans on it. Each
// probe is the median of probeBatches batches of at least probeBatchMin
// each, so a single disturbed batch does not decide the number.
const (
	probeBatches  = 15
	probeBatchMin = 20 * time.Millisecond
)

type prober struct {
	quick   bool
	metrics map[string]float64
	detail  map[string]string
}

// perOp runs batch(n) — n operations, returning the time they took —
// and records the median time per operation in the given unit.
func (p *prober) perOp(name string, unit time.Duration, batch func(n int) time.Duration) {
	batches, floor := probeBatches, probeBatchMin
	if p.quick {
		batches, floor = 1, time.Millisecond
	}
	n := 1
	for {
		d := batch(n)
		if d >= floor || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = min(max(1.25*float64(floor)/float64(d), 2), 100)
		}
		n = int(float64(n)*grow) + 1
	}
	per := make([]float64, batches)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n) / float64(unit)
	}
	q1, q2, q3 := quartiles(per)
	p.metrics[name] = q2
	p.detail[name] = fmt.Sprintf("q1 %.4g q3 %.4g, %d batches of %d", q1, q3, batches, n)
}

// ratio records the median of a(), b() pairs run in alternation as
// median(a)/median(b).
func (p *prober) ratio(name string, pairs int, a, b func() time.Duration) {
	if p.quick {
		pairs = 1
	}
	var as, bs []float64
	for i := 0; i < pairs; i++ {
		as = append(as, float64(a()))
		bs = append(bs, float64(b()))
	}
	medA, medB := median(as), median(bs)
	p.metrics[name] = medA / medB
	p.detail[name] = fmt.Sprintf("%.3f ms / %.3f ms, %d pairs", medA/1e6, medB/1e6, pairs)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// run runs the probes of the layers the workload leans on: each probe
// belongs to one workload's traced pass, so no number is printed twice
// under two names and the pass stays short.
func (p *prober) run(on owners) error {
	switch on {
	case onPaper:
		p.denseClockProbe()
		p.memProbes()
		p.intervalProbes()
		p.aggregateProbe()
		if err := p.tmkProbes(); err != nil {
			return err
		}
		if err := p.barrierProbe("tmk.barrier_us.p8.central", dsm.WithProcs(8)); err != nil {
			return err
		}
		if err := p.instrumentProbe(); err != nil {
			return err
		}
		return p.cellProbes()
	case onNet:
		p.simnetProbes()
		p.sweepProbe()
		return p.traceProbes()
	case onScale:
		p.sparseClockProbes()
		p.sparseDeltaProbe()
		return p.barrierProbe("tmk.barrier_us.p256.tree", dsm.WithProcs(256), dsm.WithBarrier("tree"))
	case onServe:
		p.expsvcProbes()
	}
	return nil
}

// sink keeps results alive so the compiler cannot drop a probed call.
var probeSink int

func (p *prober) denseClockProbe() {
	// paper-grid: dense 8-entry clocks merged at every acquire.
	x, y := vc.New(8), vc.New(8)
	for i := range y {
		y[i] = int32(i * 3)
	}
	p.perOp("vc.dense_merge_ns.p8", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				x.Merge(y)
			}
		})
	})
}

func (p *prober) sparseClockProbes() {
	// scale-256: a 256-entry register merging a stamp that deviates
	// from the shared epoch in three places.
	base := vc.NewEpoch(1, vc.New(256))
	tr := vc.NewTracked(256)
	tr.Rebase(base)
	stamp := vc.SparseStamp(base, 256, []int32{3, 120, 250}, []int32{2, 2, 2})
	p.perOp("vc.sparse_merge_ns.p256", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				tr.MergeStamp(stamp)
			}
		})
	})
	snap := vc.NewTracked(256)
	snap.Rebase(base)
	snap.Tick(7)
	snap.Tick(200)
	var arena vc.StampArena
	p.perOp("vc.sparse_snapshot_ns.p256", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				arena.Reset()
				probeSink += snap.Snapshot(&arena).Len()
			}
		})
	})
}

func (p *prober) memProbes() {
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	var twin mem.Twin
	p.perOp("mem.twin_ns_per_page", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				twin = mem.MakeTwinInto(twin, page)
			}
		})
	})
	// One word in sixteen dirty, spread over the page.
	twin = mem.MakeTwin(page)
	for w := 0; w < mem.WordsPerPage; w += 16 {
		page[w*mem.WordSize] ^= 0xff
	}
	var scratch mem.DiffScratch
	var d mem.Diff
	p.perOp("mem.diff_encode_ns_per_page", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				d = mem.EncodeDiffInto(&scratch, twin, page)
			}
		})
	})
	dst := make([]byte, mem.PageSize)
	p.perOp("mem.diff_apply_ns_per_page", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				d.Apply(dst)
			}
		})
	})
}

func (p *prober) intervalProbes() {
	// Closing an interval and publishing it: eight processors taking
	// turns, each interval naming two units.
	ts := vc.DenseStamp(vc.New(8))
	p.perOp("lrc.publish_ns", time.Nanosecond, func(n int) time.Duration {
		store := lrc.NewStore(8)
		return timed(func() {
			for i := 0; i < n; i++ {
				id := vc.IntervalID{Proc: i % 8, Seq: int32(i/8 + 1)}
				store.Publish(lrc.MakeInterval(id, ts, []int{i % 64, (i + 1) % 64}, nil))
			}
		})
	})

	// paper-grid: the delta an acquirer asks for after a barrier — two
	// unseen intervals from each of eight processors.
	store8 := filledStore(8, 16)
	from, to := vc.New(8), vc.New(8)
	for i := range from {
		from[i], to[i] = 14, 16
	}
	var out []*lrc.Interval
	p.perOp("lrc.delta_ns.p8", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				out = store8.DeltaInto(from, to, out)
			}
		})
	})
}

// filledStore holds `each` published intervals from every processor.
func filledStore(procs, each int) *lrc.Store {
	store := lrc.NewStore(procs)
	for pr := 0; pr < procs; pr++ {
		for seq := 1; seq <= each; seq++ {
			t := vc.New(procs)
			t[pr] = int32(seq)
			store.Publish(lrc.MakeInterval(vc.IntervalID{Proc: pr, Seq: int32(seq)}, vc.DenseStamp(t), []int{pr}, nil))
		}
	}
	return store
}

func (p *prober) sparseDeltaProbe() {
	// scale-256: the delta asked for through a deviation list, so only
	// the three processors that moved are looked at.
	store256 := filledStore(256, 4)
	from256 := vc.New(256)
	for i := range from256 {
		from256[i] = 3
	}
	procs, seqs := []int32{3, 120, 250}, []int32{4, 4, 4}
	var out []*lrc.Interval
	p.perOp("lrc.delta_devs_ns.p256", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				out = store256.DeltaDevsInto(from256, procs, seqs, out)
			}
		})
	})
}

func (p *prober) aggregateProbe() {
	// The Dyn cells rebuild a processor's page groups at every
	// synchronization point from the pages it touched.
	const pages = 64
	accessed := make([]int, pages)
	for i := range accessed {
		accessed[i] = (i * 37) % 1024
	}
	g := aggregate.New(aggregate.DefaultMaxPages)
	p.perOp("aggregate.rebuild_ns_per_page", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < (n+pages-1)/pages; i++ {
				g.Rebuild(accessed)
			}
		}) * time.Duration(n) / time.Duration((n+pages-1)/pages*pages)
	})
}

func (p *prober) simnetProbes() {
	// A diff request and its reply between 16 endpoints, sent in waves
	// the way a barrier phase sends them, counts only — what a capture
	// run prices once and every Derive prices again.
	cost := sim.DefaultCostModel()
	for _, name := range []string{"ideal", "bus", "switch"} {
		model, err := netmodel.New(name, cost)
		if err != nil {
			panic(err) // the three are always registered
		}
		p.perOp("simnet.exchange_ns."+name, time.Nanosecond, func(n int) time.Duration {
			model.Reset()
			net := simnet.NewWithModel(cost, model, simnet.WithCountsOnly())
			return timed(func() {
				for i := 0; i < n; i++ {
					src := i % 16
					dst := (src + 1 + (i/16)%15) % 16
					at := sim.Duration(i/16) * 2 * sim.Millisecond
					net.SendExchange(simnet.DiffRequest, simnet.DiffReply, src, dst, 24, 512, at)
				}
			})
		})
	}
}

func (p *prober) sweepProbe() {
	const tasks = 10_000
	pool := sweep.New(0)
	batch := make([]sweep.Task, tasks)
	for i := range batch {
		batch[i] = sweep.Task{Do: func(context.Context) (any, error) { return nil, nil }}
	}
	p.perOp("sweep.dispatch_us_per_task", time.Microsecond, func(n int) time.Duration {
		runs := (n + tasks - 1) / tasks
		return timed(func() {
			for i := 0; i < runs; i++ {
				if _, err := pool.Run(context.Background(), batch); err != nil {
					panic(err) // no task returns an error
				}
			}
		}) * time.Duration(n) / time.Duration(runs*tasks)
	})
}

func (p *prober) expsvcProbes() {
	specs := []expsvc.Spec{
		{App: "jacobi", Dataset: "small"},
		{App: "MGS", Dataset: "medium", Protocol: "home", Network: "bus", Procs: 6},
		{App: "3d-fft", Dataset: "small", UnitPages: 2, Placement: "block"},
		{App: "water", Dataset: "small", Protocol: "adaptive", Network: "switch"},
	}
	p.perOp("expsvc.resolve_hash_us", time.Microsecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				r, err := expsvc.Resolve(specs[i%len(specs)])
				if err != nil {
					panic(err) // fixed, valid specs
				}
				probeSink += len(r.Hash())
			}
		})
	})

	const capacity = 512
	keys := make([]string, 8*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	body := bytes.Repeat([]byte("x"), 600)
	cache := expsvc.NewCache(capacity)
	for _, k := range keys[:capacity] {
		cache.Add(k, body)
	}
	p.perOp("expsvc.cache_get_ns", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				b, _ := cache.Get(keys[(i*7)%capacity])
				probeSink += len(b)
			}
		})
	})
	// At capacity: every Add of a new key evicts the oldest.
	next := capacity
	p.perOp("expsvc.cache_add_ns", time.Nanosecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				cache.Add(keys[next%len(keys)], body)
				next++
			}
		})
	})

	// The whole hit path without a socket: decode, Resolve, hash,
	// cache, encode.
	svc := expsvc.New(expsvc.Config{Logger: slog.New(slog.DiscardHandler)})
	post := []byte(`{"app":"jacobi","dataset":"small","procs":4}`)
	serve := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(post))
		rr := httptest.NewRecorder()
		svc.ServeHTTP(rr, req)
		return rr.Code
	}
	if code := serve(); code != http.StatusOK {
		panic(fmt.Sprintf("handler probe: priming request returned %d", code))
	}
	p.perOp("expsvc.handler_hit_us", time.Microsecond, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				probeSink += serve()
			}
		})
	})
}

// tmkProbes drive the engine through the public dsm facade, one
// primitive at a time: a valid access, a remote fault, a lock moving
// between two processors.
func (p *prober) tmkProbes() error {
	var inner time.Duration // measured by processor 0 inside the run

	one, err := dsm.New(dsm.WithProcs(1), dsm.WithSegmentBytes(dsm.PageSize))
	if err != nil {
		return err
	}
	p.perOp("tmk.access_ns", time.Nanosecond, func(n int) time.Duration {
		one.Run(func(pr *dsm.Proc) {
			pr.WriteF64(0, 1)
			inner = timed(func() {
				for i := 0; i < n; i++ {
					probeSink += int(pr.ReadF64((i & 511) * 8))
				}
			})
		})
		return inner
	})

	// Processor 0 dirties one word in each page; after the barrier
	// processor 1 reads them, taking one remote fault per page.
	const faultPages = 64
	two, err := dsm.New(dsm.WithProcs(2), dsm.WithSegmentBytes(faultPages*dsm.PageSize))
	if err != nil {
		return err
	}
	p.perOp("tmk.fault_us", time.Microsecond, func(n int) time.Duration {
		var total time.Duration
		for done := 0; done < n; done += faultPages {
			two.Run(func(pr *dsm.Proc) {
				if pr.ID() == 0 {
					for pg := 0; pg < faultPages; pg++ {
						pr.WriteF64(pg*dsm.PageSize, float64(pg))
					}
				}
				pr.Barrier()
				if pr.ID() == 1 {
					inner = timed(func() {
						for pg := 0; pg < faultPages; pg++ {
							probeSink += int(pr.ReadF64(pg * dsm.PageSize))
						}
					})
				}
			})
			total += inner
		}
		return total * time.Duration(n) / time.Duration((n+faultPages-1)/faultPages*faultPages)
	})

	locker, err := dsm.New(dsm.WithProcs(2), dsm.WithSegmentBytes(dsm.PageSize), dsm.WithLocks(1))
	if err != nil {
		return err
	}
	p.perOp("tmk.lock_handoff_us", time.Microsecond, func(n int) time.Duration {
		each := (n + 1) / 2
		d := timed(func() {
			locker.Run(func(pr *dsm.Proc) {
				for k := 0; k < each; k++ {
					pr.Lock(0)
					pr.WriteI64(0, pr.ReadI64(0)+1)
					pr.Unlock(0)
				}
			})
		})
		return d * time.Duration(n) / time.Duration(2*each)
	})

	return nil
}

// barrierProbe times one barrier episode on the fabric and processor
// count the options give.
func (p *prober) barrierProbe(name string, opts ...dsm.Option) error {
	sys, err := dsm.New(append(opts, dsm.WithSegmentBytes(dsm.PageSize))...)
	if err != nil {
		return err
	}
	var inner time.Duration
	p.perOp(name, time.Microsecond, func(n int) time.Duration {
		sys.Run(func(pr *dsm.Proc) {
			pr.Barrier() // every processor is running before the clock starts
			start := time.Now()
			for k := 0; k < n; k++ {
				pr.Barrier()
			}
			if pr.ID() == 0 {
				inner = time.Since(start)
			}
		})
		return inner
	})
	return nil
}

// instrumentProbe is the host cost of the §5.3 collector: the same
// Jacobi cell with collection on and off.
func (p *prober) instrumentProbe() error {
	e := harness.Figure2()[0]
	var failure error
	run := func(collect bool) func() time.Duration {
		return func() time.Duration {
			return timed(func() {
				if _, err := apps.Run(e.Make(harness.Procs), engineConfig(harness.Config{Unit: 1}, harness.Procs, collect)); err != nil {
					failure = err
				}
			})
		}
	}
	p.ratio("instrument.collect_ratio", probeBatches, run(true), run(false))
	return failure
}

// traceProbes cover the capture path and the replay path on the cell
// net-sweep is built around.
func (p *prober) traceProbes() error {
	ms := trace.NewMemSink()
	timing := netmodel.ExchangeTiming{}
	p.perOp("trace.memsink_ns_per_event", time.Nanosecond, func(n int) time.Duration {
		ms.Reset()
		return timed(func() {
			for i := 0; i < n; i++ {
				ms.TraceExchange(simnet.DiffRequest, simnet.DiffReply, i%16, (i+1)%16, 24, 512, sim.Duration(i), timing)
			}
		})
	})

	app, dataset, procs, pairs := "Ilink", "large", 16, 5
	if p.quick {
		app, dataset, procs = "Jacobi", "small", 8
	}
	e, err := lookupExperiment(app, dataset)
	if err != nil {
		return err
	}
	var failure error
	var captured *trace.MemSink
	run := func(capture bool) func() time.Duration {
		return func() time.Duration {
			cfg := engineConfig(harness.Config{Unit: 1, Protocol: "homeless", Network: deriveBase}, procs, false)
			if capture {
				captured = trace.NewMemSink()
				cfg.Sink = captured
			}
			return timed(func() {
				if _, err := apps.Run(e.Make(procs), cfg); err != nil {
					failure = err
				}
			})
		}
	}
	p.ratio("trace.capture_ratio", pairs, run(true), run(false))
	if failure != nil {
		return failure
	}

	// Re-pricing that capture under each of the other networks.
	passes := 3
	if p.quick {
		passes = 1
	}
	var perEvent []float64
	for pass := 0; pass < passes; pass++ {
		var total time.Duration
		targets := 0
		for _, network := range netmodel.Names() {
			if network == deriveBase {
				continue
			}
			total += timed(func() {
				if _, err := captured.Derive(network); err != nil {
					failure = err
				}
			})
			targets++
		}
		perEvent = append(perEvent, float64(total)/float64(targets)/float64(captured.Len()))
	}
	p.metrics["trace.derive_ns_per_event"] = median(perEvent)
	p.detail["trace.derive_ns_per_event"] = fmt.Sprintf("%s/%s p%d homeless, %d events, %d passes over the five target networks",
		e.App, e.Dataset, procs, captured.Len(), passes)
	return failure
}

// cellProbes time one cell of each paper application — its Table 1
// dataset at the 4 KB unit, 8 processors, instrumentation on, as
// paper-grid runs it — through the traced cell: where a figure round's
// time goes by application.
func (p *prober) cellProbes() error {
	repeats := 5
	if p.quick {
		repeats = 1
	}
	for _, e := range harness.Table1() {
		var ms []float64
		for i := 0; i < repeats; i++ {
			var err error
			d := timed(func() {
				_, err = tracedCell(nil, noSpan, 0, e, harness.Configs()[0], harness.Procs, true, nil)
			})
			if err != nil {
				return err
			}
			ms = append(ms, float64(d)/1e6)
		}
		q1, q2, q3 := quartiles(ms)
		p.metrics["harness.cell_ms."+e.App] = q2
		p.detail["harness.cell_ms."+e.App] = fmt.Sprintf("%s 4K, q1 %.3g q3 %.3g, %d runs", e.Dataset, q1, q3, repeats)
	}
	return nil
}
