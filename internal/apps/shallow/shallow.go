// Package shallow implements the paper's Shallow benchmark (NCAR): a
// finite-difference solver on a two-dimensional grid, column-partitioned
// across processors.
//
// Sharing patterns (§5.5), all reproduced structurally:
//
//  1. For the state arrays (u, v, pr), each processor writes only its own
//     columns and reads the first column of its right neighbour's chunk
//     — Jacobi-like; larger units add piggybacked useless data.
//  2. For the flux array (psi), each processor writes its own columns
//     *plus the first column of its right neighbour's chunk* but never
//     reads any neighbour column: write-write false sharing that turns
//     into useless messages as soon as a consistency unit holds two
//     columns.
//  3. A wraparound pattern: the master copies the last column of u to
//     column 0 each iteration.
//
// Storage is column-major, so a column is contiguous; the dataset knob is
// the column height (512 float64 = 1 page, matching the paper's
// 1K float32 columns at 4 KB).
package shallow

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
	Rows  int // column height in float64 (512 = 1 page)
	Cols  int // number of columns; must be divisible by Procs
	Iters int
	Procs int
}

// App is one Shallow instance.
type App struct {
	cfg         Config
	u, v, pr    apps.Arr
	un, vn, prn apps.Arr
	psi         apps.Arr
	out         []float64
}

// New returns a Shallow workload.
func New(cfg Config) *App {
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	return &App{cfg: cfg}
}

func (a *App) colPages() int { return mem.RoundUpPages(a.cfg.Rows*mem.WordSize) / mem.PageSize }

func (a *App) arrPages() int { return a.colPages() * a.cfg.Cols }

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int { return 7*a.arrPages()*mem.PageSize + mem.PageSize }

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	n := a.arrPages()
	a.u = apps.Arr{Base: sys.AllocPages(n)}
	a.v = apps.Arr{Base: sys.AllocPages(n)}
	a.pr = apps.Arr{Base: sys.AllocPages(n)}
	a.un = apps.Arr{Base: sys.AllocPages(n)}
	a.vn = apps.Arr{Base: sys.AllocPages(n)}
	a.prn = apps.Arr{Base: sys.AllocPages(n)}
	a.psi = apps.Arr{Base: sys.AllocPages(n)}
}

// at returns the element index of (row r, column c); columns are padded
// to whole pages so the column-to-page ratio is exact.
func (a *App) at(r, c int) int {
	return c*(a.colPages()*mem.PageSize/mem.WordSize) + r
}

func (a *App) initU(r, c int) float64  { return float64((r*7+c*13)%31) / 31.0 }
func (a *App) initV(r, c int) float64  { return float64((r*11+c*3)%29) / 29.0 }
func (a *App) initPr(r, c int) float64 { return 1.0 + float64((r*5+c*17)%23)/23.0 }

// Body implements apps.Workload.
func (a *App) Body(p *tmk.Proc) {
	R, C, P := a.cfg.Rows, a.cfg.Cols, p.NProcs()
	lo, hi := apps.Band(C, P, p.ID())

	// Owners initialize their own columns.
	for c := lo; c < hi; c++ {
		for r := 0; r < R; r++ {
			p.WriteF64(a.u.At(a.at(r, c)), a.initU(r, c))
			p.WriteF64(a.v.At(a.at(r, c)), a.initV(r, c))
			p.WriteF64(a.pr.At(a.at(r, c)), a.initPr(r, c))
		}
	}
	p.Barrier()

	for it := 0; it < a.cfg.Iters; it++ {
		// Phase A: compute new state from (own cols, right neighbour's
		// first col); write flux into own cols 2..last and the right
		// neighbour's first column.
		for c := lo; c < hi; c++ {
			if c == C-1 {
				continue // fixed right boundary
			}
			for r := 1; r < R-1; r++ {
				uc := p.ReadF64(a.u.At(a.at(r, c)))
				ur := p.ReadF64(a.u.At(a.at(r, c+1)))
				vc := p.ReadF64(a.v.At(a.at(r, c)))
				pc := p.ReadF64(a.pr.At(a.at(r, c)))
				pright := p.ReadF64(a.pr.At(a.at(r, c+1)))
				p.WriteF64(a.un.At(a.at(r, c)), uc+0.1*(ur-uc)-0.05*(pright-pc))
				p.WriteF64(a.vn.At(a.at(r, c)), vc+0.1*(pc-1.0))
				p.WriteF64(a.prn.At(a.at(r, c)), pc+0.05*(uc-vc))
				p.Compute(12) // difference-equation arithmetic
			}
		}
		// Flux: write cols [lo+1, hi] — the last one is the right
		// neighbour's first column, which nobody ever reads.
		for c := lo + 1; c <= hi && c < C; c++ {
			for r := 0; r < R; r++ {
				p.WriteF64(a.psi.At(a.at(r, c)),
					float64(it+1)*a.initU(r, c)-a.initV(r, c))
			}
		}
		p.Barrier()

		// Phase B: commit new state (reading only own columns).
		for c := lo; c < hi; c++ {
			if c == C-1 {
				continue
			}
			for r := 1; r < R-1; r++ {
				p.WriteF64(a.u.At(a.at(r, c)), p.ReadF64(a.un.At(a.at(r, c))))
				p.WriteF64(a.v.At(a.at(r, c)), p.ReadF64(a.vn.At(a.at(r, c))))
				pv := p.ReadF64(a.prn.At(a.at(r, c)))
				// Read own flux columns, never the neighbour-written one.
				if c > lo {
					pv += 0.01 * p.ReadF64(a.psi.At(a.at(r, c)))
				}
				p.WriteF64(a.pr.At(a.at(r, c)), pv)
				p.Compute(4)
			}
		}
		p.Barrier()

		// Wraparound copy by the master: u's last column to column 0.
		if p.ID() == 0 {
			for r := 0; r < R; r++ {
				p.WriteF64(a.u.At(a.at(r, 0)), p.ReadF64(a.u.At(a.at(r, C-1))))
			}
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.out = make([]float64, 0, 3*R*C)
		for c := 0; c < C; c++ {
			for r := 0; r < R; r++ {
				a.out = append(a.out,
					p.ReadF64(a.u.At(a.at(r, c))),
					p.ReadF64(a.v.At(a.at(r, c))),
					p.ReadF64(a.pr.At(a.at(r, c))))
			}
		}
	}
}

// Sequential computes the reference state in plain Go.
func (a *App) Sequential() []float64 {
	R, C := a.cfg.Rows, a.cfg.Cols
	idx := func(r, c int) int { return c*R + r }
	u := make([]float64, R*C)
	v := make([]float64, R*C)
	pr := make([]float64, R*C)
	un := make([]float64, R*C)
	vn := make([]float64, R*C)
	prn := make([]float64, R*C)
	psi := make([]float64, R*C)
	for c := 0; c < C; c++ {
		for r := 0; r < R; r++ {
			u[idx(r, c)] = a.initU(r, c)
			v[idx(r, c)] = a.initV(r, c)
			pr[idx(r, c)] = a.initPr(r, c)
		}
	}
	for it := 0; it < a.cfg.Iters; it++ {
		for c := 0; c < C-1; c++ {
			for r := 1; r < R-1; r++ {
				uc, ur := u[idx(r, c)], u[idx(r, c+1)]
				vc := v[idx(r, c)]
				pc, pright := pr[idx(r, c)], pr[idx(r, c+1)]
				un[idx(r, c)] = uc + 0.1*(ur-uc) - 0.05*(pright-pc)
				vn[idx(r, c)] = vc + 0.1*(pc-1.0)
				prn[idx(r, c)] = pc + 0.05*(uc-vc)
			}
		}
		for c := 1; c < C; c++ {
			for r := 0; r < R; r++ {
				psi[idx(r, c)] = float64(it+1)*a.initU(r, c) - a.initV(r, c)
			}
		}
		for c := 0; c < C-1; c++ {
			firstOfChunk := false
			for p := 0; p < a.cfg.Procs; p++ {
				if l, _ := apps.Band(C, a.cfg.Procs, p); l == c {
					firstOfChunk = true
				}
			}
			for r := 1; r < R-1; r++ {
				u[idx(r, c)] = un[idx(r, c)]
				v[idx(r, c)] = vn[idx(r, c)]
				pv := prn[idx(r, c)]
				if !firstOfChunk {
					pv += 0.01 * psi[idx(r, c)]
				}
				pr[idx(r, c)] = pv
			}
		}
		for r := 0; r < R; r++ {
			u[idx(r, 0)] = u[idx(r, C-1)]
		}
	}
	out := make([]float64, 0, 3*R*C)
	for c := 0; c < C; c++ {
		for r := 0; r < R; r++ {
			out = append(out, u[idx(r, c)], v[idx(r, c)], pr[idx(r, c)])
		}
	}
	return out
}

// Check implements apps.Workload (bitwise; barrier-deterministic).
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	return apps.CheckEqual("shallow: value", a.out, want)
}
