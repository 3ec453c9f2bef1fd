// Package jacobi implements the paper's Jacobi kernel: an iterative
// 5-point stencil solver for a differential equation on a rectangular
// grid. Each processor owns a band of rows; only the boundary rows are
// communicated between neighbours.
//
// Sharing pattern (§5.5): boundary-row pages are entirely written and
// therefore communicated; pages holding private (interior) data next to a
// boundary row turn that data into piggybacked useless data at larger
// consistency units. There are never useless messages — wherever there is
// false sharing at a boundary there is also true sharing.
//
// Dataset naming: "RxC" gives rows×cols of float64; the paper's 1K×1K
// (4 KB rows of float32) corresponds to our rows of 512 float64 = 1 page.
package jacobi

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
	Rows, Cols int // grid dimensions (Cols float64 per row)
	Iters      int
	Procs      int
}

// App is one Jacobi instance.
type App struct {
	cfg  Config
	a, b apps.Arr // the two grids (read/write roles alternate)
	out  []float64
}

// New returns a Jacobi workload. Rows must be divisible by nothing in
// particular; bands are balanced.
func New(cfg Config) *App {
	if cfg.Iters <= 0 {
		cfg.Iters = 4
	}
	return &App{cfg: cfg}
}

// RowBytes returns the byte length of one grid row.
func (a *App) RowBytes() int { return a.cfg.Cols * mem.WordSize }

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return 2*mem.RoundUpPages(a.cfg.Rows*a.RowBytes()) + mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	gridPages := mem.RoundUpPages(a.cfg.Rows*a.RowBytes()) / mem.PageSize
	a.a = apps.Arr{Base: sys.AllocPages(gridPages)}
	a.b = apps.Arr{Base: sys.AllocPages(gridPages)}
}

func (a *App) idx(r, c int) int { return r*a.cfg.Cols + c }

// initial returns the fixed initial/boundary value at (r, c).
func (a *App) initial(r, c int) float64 {
	return float64((r*31+c*17)%97) / 97.0
}

// Body implements apps.Workload: proc 0 initializes, then all processors
// iterate the stencil over their row bands with barriers between sweeps.
func (a *App) Body(p *tmk.Proc) {
	R, C := a.cfg.Rows, a.cfg.Cols
	if p.ID() == 0 {
		for r := 0; r < R; r++ {
			for c := 0; c < C; c++ {
				v := a.initial(r, c)
				p.WriteF64(a.a.At(a.idx(r, c)), v)
				p.WriteF64(a.b.At(a.idx(r, c)), v)
			}
		}
	}
	p.Barrier()

	lo, hi := apps.Band(R, p.NProcs(), p.ID())
	src, dst := a.a, a.b
	for it := 0; it < a.cfg.Iters; it++ {
		for r := lo; r < hi; r++ {
			if r == 0 || r == R-1 {
				continue // fixed boundary
			}
			for c := 1; c < C-1; c++ {
				v := 0.25 * (p.ReadF64(src.At(a.idx(r-1, c))) +
					p.ReadF64(src.At(a.idx(r+1, c))) +
					p.ReadF64(src.At(a.idx(r, c-1))) +
					p.ReadF64(src.At(a.idx(r, c+1))))
				p.WriteF64(dst.At(a.idx(r, c)), v)
				p.Compute(6) // stencil arithmetic
			}
		}
		p.Barrier()
		src, dst = dst, src
	}

	if p.ID() == 0 {
		a.out = make([]float64, R*C)
		for r := 0; r < R; r++ {
			for c := 0; c < C; c++ {
				a.out[a.idx(r, c)] = p.ReadF64(src.At(a.idx(r, c)))
			}
		}
	}
}

// Sequential computes the reference result in plain Go.
func (a *App) Sequential() []float64 {
	R, C := a.cfg.Rows, a.cfg.Cols
	cur := make([]float64, R*C)
	nxt := make([]float64, R*C)
	for r := 0; r < R; r++ {
		for c := 0; c < C; c++ {
			cur[a.idx(r, c)] = a.initial(r, c)
			nxt[a.idx(r, c)] = cur[a.idx(r, c)]
		}
	}
	for it := 0; it < a.cfg.Iters; it++ {
		for r := 1; r < R-1; r++ {
			for c := 1; c < C-1; c++ {
				nxt[a.idx(r, c)] = 0.25 * (cur[a.idx(r-1, c)] +
					cur[a.idx(r+1, c)] + cur[a.idx(r, c-1)] + cur[a.idx(r, c+1)])
			}
		}
		cur, nxt = nxt, cur
	}
	return cur
}

// Check implements apps.Workload: the DSM result must equal the
// sequential reference bitwise (the computation is barrier-deterministic).
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	return apps.CheckEqual("jacobi: cell", a.out, want)
}
