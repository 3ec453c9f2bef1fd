// Package mgs implements the paper's Modified Gram-Schmidt kernel: an
// orthonormal basis for a set of N-dimensional vectors, with the vectors
// distributed cyclically over the processors.
//
// Sharing pattern (§5.5): in each iteration the owner normalizes the
// pivot vector (write granularity = one vector), then every processor
// orthogonalizes its own following vectors against the pivot (read
// granularity = one vector). When the vector length equals the 4 KB page,
// read/write granularity matches the consistency unit exactly and there
// is no false sharing; at 8 or 16 KB units, two or four cyclically-owned
// vectors share a unit, every unit acquires multiple concurrent writers,
// and useless messages explode — the paper's one dramatic degradation.
//
// Dataset naming: "NxM" is M vectors of N float64. The paper's 1K×1K
// (4 KB float32 vectors) corresponds to our N=512 (one page per vector).
package mgs

import (
	"fmt"
	"math"

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
	Dim     int // vector dimension (float64 words; 512 = 1 page)
	Vectors int // number of vectors (must be >= Procs)
	Procs   int
}

// App is one MGS instance.
type App struct {
	cfg  Config
	vecs apps.Arr
	out  []float64
}

// New returns an MGS workload.
func New(cfg Config) *App { return &App{cfg: cfg} }

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return mem.RoundUpPages(a.cfg.Dim*a.cfg.Vectors*mem.WordSize) + mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	pages := mem.RoundUpPages(a.cfg.Dim*a.cfg.Vectors*mem.WordSize) / mem.PageSize
	a.vecs = apps.Arr{Base: sys.AllocPages(pages)}
}

func (a *App) at(v, d int) int { return v*a.cfg.Dim + d }

// initial is the deterministic input matrix (diagonally dominant so the
// basis is well-conditioned).
func (a *App) initial(v, d int) float64 {
	x := float64((v*131+d*29)%113)/113.0 - 0.5
	if v == d {
		x += float64(a.cfg.Dim)
	}
	return x
}

// Body implements apps.Workload. Vector i is owned by processor
// i mod P (cyclic distribution, as in the paper).
func (a *App) Body(p *tmk.Proc) {
	D, M, P := a.cfg.Dim, a.cfg.Vectors, p.NProcs()
	// Owners initialize their own vectors (the usual DSM idiom: avoids
	// every later reader dragging in stale initialization diffs).
	for v := p.ID(); v < M; v += P {
		for d := 0; d < D; d++ {
			p.WriteF64(a.vecs.At(a.at(v, d)), a.initial(v, d))
		}
	}
	p.Barrier()

	for i := 0; i < M; i++ {
		if i%P == p.ID() {
			// Normalize the pivot vector.
			var norm float64
			for d := 0; d < D; d++ {
				x := p.ReadF64(a.vecs.At(a.at(i, d)))
				norm += x * x
			}
			norm = math.Sqrt(norm)
			for d := 0; d < D; d++ {
				p.WriteF64(a.vecs.At(a.at(i, d)),
					p.ReadF64(a.vecs.At(a.at(i, d)))/norm)
			}
		}
		p.Barrier()
		// Orthogonalize own following vectors against the pivot.
		for j := i + 1; j < M; j++ {
			if j%P != p.ID() {
				continue
			}
			var dot float64
			for d := 0; d < D; d++ {
				dot += p.ReadF64(a.vecs.At(a.at(i, d))) *
					p.ReadF64(a.vecs.At(a.at(j, d)))
			}
			p.Compute(4 * D) // multiply-adds of dot and update
			for d := 0; d < D; d++ {
				v := p.ReadF64(a.vecs.At(a.at(j, d))) -
					dot*p.ReadF64(a.vecs.At(a.at(i, d)))
				p.WriteF64(a.vecs.At(a.at(j, d)), v)
			}
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.out = make([]float64, M*D)
		for v := 0; v < M; v++ {
			for d := 0; d < D; d++ {
				a.out[a.at(v, d)] = p.ReadF64(a.vecs.At(a.at(v, d)))
			}
		}
	}
}

// Sequential computes the reference basis in plain Go with the same
// operation order as the parallel version.
func (a *App) Sequential() []float64 {
	D, M := a.cfg.Dim, a.cfg.Vectors
	m := make([]float64, M*D)
	for v := 0; v < M; v++ {
		for d := 0; d < D; d++ {
			m[a.at(v, d)] = a.initial(v, d)
		}
	}
	for i := 0; i < M; i++ {
		var norm float64
		for d := 0; d < D; d++ {
			norm += m[a.at(i, d)] * m[a.at(i, d)]
		}
		norm = math.Sqrt(norm)
		for d := 0; d < D; d++ {
			m[a.at(i, d)] /= norm
		}
		for j := i + 1; j < M; j++ {
			var dot float64
			for d := 0; d < D; d++ {
				dot += m[a.at(i, d)] * m[a.at(j, d)]
			}
			for d := 0; d < D; d++ {
				m[a.at(j, d)] -= dot * m[a.at(i, d)]
			}
		}
	}
	return m
}

// Check implements apps.Workload: bitwise equality with the sequential
// reference, plus an orthonormality sanity check.
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	if err := apps.CheckEqual("mgs: element", a.out, want); err != nil {
		return err
	}
	// Orthonormality of the first few vectors.
	D := a.cfg.Dim
	check := min(4, a.cfg.Vectors)
	for u := 0; u < check; u++ {
		for v := u; v < check; v++ {
			var dot float64
			for d := 0; d < D; d++ {
				dot += a.out[a.at(u, d)] * a.out[a.at(v, d)]
			}
			want := 0.0
			if u == v {
				want = 1.0
			}
			if err := apps.CheckClose(
				fmt.Sprintf("mgs: <q%d,q%d>", u, v), dot, want, 1e-9); err != nil {
				return err
			}
		}
	}
	return nil
}
