// Package ilink implements a synthetic equivalent of the paper's Ilink
// workload (parallel genetic linkage analysis). The paper's real inputs
// (CLP pedigree data) are not available; per DESIGN.md §2 we reproduce
// the *sharing pattern* §5.5 describes, which is all the paper's analysis
// depends on:
//
//   - The main data structure is a pool of sparse "genarrays" in shared
//     memory. Both read and write granularity are very small and all
//     processors write to every page of the pool (round-robin assignment
//     of the non-zero elements) — extensive write-write false sharing.
//   - Each iteration, the slaves update their share of the non-zero
//     elements; the master then reads the whole pool and rescales it.
//     The master's faults see all 7 slaves as concurrent writers, the
//     slaves' faults see one (the master): the false-sharing signature
//     is bimodal at 1 and P-1, with very few useless messages.
//   - Every processor accesses every page, so aggregation is beneficial
//     and larger units add almost no false sharing.
package ilink

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// seqMemo shares the sequential reference across workload instances of
// the same configuration (see apps.SeqMemo); Check treats the returned
// slice as read-only.
var seqMemo apps.SeqMemo[[]float64]

// Config selects the dataset.
type Config struct {
	Genarrays int // number of sparse arrays in the pool
	Len       int // words per genarray
	Iters     int
	Procs     int
}

// App is one Ilink instance.
type App struct {
	cfg     Config
	pool    apps.Arr
	summary apps.Arr // master-written page: per-iteration pool statistics
	out     []float64
}

// New returns an Ilink workload.
func New(cfg Config) *App {
	if cfg.Iters <= 0 {
		cfg.Iters = 4
	}
	return &App{cfg: cfg}
}

func (a *App) words() int { return a.cfg.Genarrays * a.cfg.Len }

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return mem.RoundUpPages(a.words()*mem.WordSize) + 2*mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.pool = apps.Arr{Base: sys.AllocPages(mem.RoundUpPages(a.words()*mem.WordSize) / mem.PageSize)}
	a.summary = apps.Arr{Base: sys.AllocPages(1)}
}

// nonzero reports whether pool element k is a non-zero entry of its
// sparse genarray (~1/3 density, deterministic and scattered).
func nonzero(k int) bool { return (k*2654435761)>>4&3 == 0 }

func initVal(k int) float64 { return 1.0 + float64(k%17)/17.0 }

// Body implements apps.Workload.
func (a *App) Body(p *tmk.Proc) {
	W, P := a.words(), p.NProcs()

	// The master initializes the pool (it owns the model data).
	if p.ID() == 0 {
		for k := 0; k < W; k++ {
			if nonzero(k) {
				p.WriteF64(a.pool.At(k), initVal(k))
			}
		}
	}
	p.Barrier()

	for it := 0; it < a.cfg.Iters; it++ {
		// Every processor evaluates its likelihood term over the WHOLE
		// pool (fine-grained reads of every page — this is why the
		// write-write false sharing rarely produces useless messages)
		// and updates its round-robin share of the non-zero elements.
		stat := p.ReadF64(a.summary.At(0))
		var local float64
		nz := 0
		for k := 0; k < W; k++ {
			if !nonzero(k) {
				continue
			}
			v := p.ReadF64(a.pool.At(k))
			local += v
			if nz%P == p.ID() {
				p.Compute(800) // per-element genetic-likelihood arithmetic
				p.WriteF64(a.pool.At(k), v+0.5/(v+float64(it+1)+0.1*stat))
			}
			nz++
		}
		_ = local
		p.Barrier()

		// The master reads every contribution (all P writers concurrent
		// on every page) and publishes the pool statistic the slaves
		// read next iteration.
		if p.ID() == 0 {
			var sum float64
			for k := 0; k < W; k++ {
				if nonzero(k) {
					sum += p.ReadF64(a.pool.At(k))
					p.Compute(2)
				}
			}
			p.WriteF64(a.summary.At(0), 1.0/(sum+1.0))
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.out = make([]float64, 0, W/3+1)
		for k := 0; k < W; k++ {
			if nonzero(k) {
				a.out = append(a.out, p.ReadF64(a.pool.At(k)))
			}
		}
	}
}

// Sequential computes the reference pool in plain Go, mimicking the
// round-robin update order per processor so FP results match bitwise.
func (a *App) Sequential() []float64 {
	W, P := a.words(), a.cfg.Procs
	pool := make([]float64, W)
	for k := 0; k < W; k++ {
		if nonzero(k) {
			pool[k] = initVal(k)
		}
	}
	_ = P
	stat := 0.0
	for it := 0; it < a.cfg.Iters; it++ {
		// Every non-zero element is updated exactly once per iteration,
		// by a formula depending only on its value and the statistic.
		for k := 0; k < W; k++ {
			if nonzero(k) {
				pool[k] += 0.5 / (pool[k] + float64(it+1) + 0.1*stat)
			}
		}
		var sum float64
		for k := 0; k < W; k++ {
			if nonzero(k) {
				sum += pool[k]
			}
		}
		stat = 1.0 / (sum + 1.0)
	}
	out := make([]float64, 0, W/3+1)
	for k := 0; k < W; k++ {
		if nonzero(k) {
			out = append(out, pool[k])
		}
	}
	return out
}

// Check implements apps.Workload (bitwise; barrier-deterministic).
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	return apps.CheckEqual("ilink: value", a.out, want)
}
