// Package water implements the paper's Water application (SPLASH): a
// molecular-dynamics simulation computing intra- and inter-molecular
// forces with an O(n²/2) interaction pattern and a cut-off radius.
//
// Sharing pattern (§5.5): the molecule array is contiguous and block-
// partitioned; a lock protects each molecule's force accumulator.
// Write-write false sharing occurs at the block boundaries during the
// intra-molecular phase (useless messages: a processor receives the
// preceding neighbour's molecule data it never reads). In the
// inter-molecular phase each processor reads the n/2 molecules following
// its own, wrap-around — fine-grained reads over half the array, so
// aggregation is beneficial. Private per-molecule state (velocities and
// intra-molecular scratch) travels as piggybacked useless data.
//
// Lock-ordered force accumulation makes floating-point sums order-
// dependent, so verification uses a small relative tolerance.
package water

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

// Molecule layout: 16 words.
const (
	mX = iota
	mY
	mZ
	mVX // private to the owner
	mVY
	mVZ
	mFX // force accumulator, lock-protected
	mFY
	mFZ
	mScratch0 // intra-molecular private state (owner-only)
	mScratch1
	mScratch2
	mScratch3
	mScratch4
	mScratch5
	mScratch6
	molWords
)

// Config selects the dataset.
type Config struct {
	Molecules int
	Steps     int
	Procs     int
}

// App is one Water instance.
type App struct {
	cfg  Config
	mols apps.Arr
	out  []float64
}

// New returns a Water workload.
func New(cfg Config) *App {
	if cfg.Steps <= 0 {
		cfg.Steps = 2
	}
	return &App{cfg: cfg}
}

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return mem.RoundUpPages(a.cfg.Molecules*molWords*mem.WordSize) + mem.PageSize
}

// Locks implements apps.Workload: one per molecule.
func (a *App) Locks() int { return a.cfg.Molecules }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.mols = apps.Arr{Base: sys.AllocPages(
		mem.RoundUpPages(a.cfg.Molecules*molWords*mem.WordSize) / mem.PageSize)}
}

func (a *App) mol(i, f int) mem.Addr { return a.mols.At(i*molWords + f) }

func initPos(i int) (x, y, z float64) {
	h := func(mult, mod int) float64 {
		return float64((i*mult+7)%mod) / float64(mod)
	}
	return h(97, 251), h(131, 257), h(173, 263)
}

// pairForce is the (deterministic, cut-off) interaction force on
// molecule i from molecule j.
func pairForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64) {
	const cutoff2 = 0.25
	dx, dy, dz := xj-xi, yj-yi, zj-zi
	d2 := dx*dx + dy*dy + dz*dz
	if d2 >= cutoff2 || d2 == 0 {
		return 0, 0, 0
	}
	k := 1.0/(d2+0.01) - 1.0/(cutoff2+0.01)
	return k * dx, k * dy, k * dz
}

// Body implements apps.Workload.
func (a *App) Body(p *tmk.Proc) {
	n, P := a.cfg.Molecules, p.NProcs()
	lo, hi := apps.Band(n, P, p.ID())

	// Owners initialize their block.
	for i := lo; i < hi; i++ {
		x, y, z := initPos(i)
		p.WriteF64(a.mol(i, mX), x)
		p.WriteF64(a.mol(i, mY), y)
		p.WriteF64(a.mol(i, mZ), z)
	}
	p.Barrier()

	for step := 0; step < a.cfg.Steps; step++ {
		// Intra-molecular phase: update private per-molecule state,
		// writing the whole molecule record (the boundary-page
		// write-write false sharing of §5.5).
		for i := lo; i < hi; i++ {
			x := p.ReadF64(a.mol(i, mX))
			y := p.ReadF64(a.mol(i, mY))
			z := p.ReadF64(a.mol(i, mZ))
			for s := 0; s < 7; s++ {
				p.WriteF64(a.mol(i, mScratch0+s),
					x*float64(s+1)+y-z*float64(step+1))
			}
		}
		p.Barrier()

		// Inter-molecular phase: each processor interacts its molecules
		// with the n/2 following molecules (wrap-around), accumulating
		// into a private buffer first and applying each molecule's total
		// under that molecule's lock — the SPLASH structure (one lock
		// acquisition per touched molecule per step, not per pair).
		acc := make([]float64, 3*n)
		touched := make([]bool, n)
		for i := lo; i < hi; i++ {
			xi := p.ReadF64(a.mol(i, mX))
			yi := p.ReadF64(a.mol(i, mY))
			zi := p.ReadF64(a.mol(i, mZ))
			for d := 1; d <= n/2; d++ {
				j := (i + d) % n
				fx, fy, fz := pairForce(xi, yi, zi,
					p.ReadF64(a.mol(j, mX)),
					p.ReadF64(a.mol(j, mY)),
					p.ReadF64(a.mol(j, mZ)))
				p.Compute(1500) // per-pair site-site force arithmetic (9 site pairs)
				if fx == 0 && fy == 0 && fz == 0 {
					continue
				}
				acc[3*i] += fx
				acc[3*i+1] += fy
				acc[3*i+2] += fz
				acc[3*j] -= fx
				acc[3*j+1] -= fy
				acc[3*j+2] -= fz
				touched[i] = true
				touched[j] = true
			}
		}
		for j := 0; j < n; j++ {
			if !touched[j] {
				continue
			}
			p.Lock(j)
			p.WriteF64(a.mol(j, mFX), p.ReadF64(a.mol(j, mFX))+acc[3*j])
			p.WriteF64(a.mol(j, mFY), p.ReadF64(a.mol(j, mFY))+acc[3*j+1])
			p.WriteF64(a.mol(j, mFZ), p.ReadF64(a.mol(j, mFZ))+acc[3*j+2])
			p.Unlock(j)
		}
		p.Barrier()

		// Integration: owners advance their molecules and clear forces.
		const dt = 0.002
		for i := lo; i < hi; i++ {
			vx := p.ReadF64(a.mol(i, mVX)) + dt*p.ReadF64(a.mol(i, mFX))
			vy := p.ReadF64(a.mol(i, mVY)) + dt*p.ReadF64(a.mol(i, mFY))
			vz := p.ReadF64(a.mol(i, mVZ)) + dt*p.ReadF64(a.mol(i, mFZ))
			p.WriteF64(a.mol(i, mVX), vx)
			p.WriteF64(a.mol(i, mVY), vy)
			p.WriteF64(a.mol(i, mVZ), vz)
			p.WriteF64(a.mol(i, mX), p.ReadF64(a.mol(i, mX))+dt*vx)
			p.WriteF64(a.mol(i, mY), p.ReadF64(a.mol(i, mY))+dt*vy)
			p.WriteF64(a.mol(i, mZ), p.ReadF64(a.mol(i, mZ))+dt*vz)
			p.WriteF64(a.mol(i, mFX), 0)
			p.WriteF64(a.mol(i, mFY), 0)
			p.WriteF64(a.mol(i, mFZ), 0)
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.out = make([]float64, 0, 3*n)
		for i := 0; i < n; i++ {
			a.out = append(a.out,
				p.ReadF64(a.mol(i, mX)),
				p.ReadF64(a.mol(i, mY)),
				p.ReadF64(a.mol(i, mZ)))
		}
	}
}

// Sequential computes the reference trajectory in plain Go (canonical
// i-ascending accumulation order).
func (a *App) Sequential() []float64 {
	n := a.cfg.Molecules
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	vx := make([]float64, n)
	vy := make([]float64, n)
	vz := make([]float64, n)
	fx := make([]float64, n)
	fy := make([]float64, n)
	fz := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i], y[i], z[i] = initPos(i)
	}
	const dt = 0.002
	for step := 0; step < a.cfg.Steps; step++ {
		for i := 0; i < n; i++ {
			for d := 1; d <= n/2; d++ {
				j := (i + d) % n
				gx, gy, gz := pairForce(x[i], y[i], z[i], x[j], y[j], z[j])
				fx[i] += gx
				fy[i] += gy
				fz[i] += gz
				fx[j] -= gx
				fy[j] -= gy
				fz[j] -= gz
			}
		}
		for i := 0; i < n; i++ {
			vx[i] += dt * fx[i]
			vy[i] += dt * fy[i]
			vz[i] += dt * fz[i]
			x[i] += dt * vx[i]
			y[i] += dt * vy[i]
			z[i] += dt * vz[i]
			fx[i], fy[i], fz[i] = 0, 0, 0
		}
	}
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, x[i], y[i], z[i])
	}
	return out
}

// Check implements apps.Workload. Lock-order-dependent FP accumulation
// means bitwise equality cannot be expected; positions must match the
// reference within a tight relative tolerance.
func (a *App) Check() error {
	if a.out == nil {
		return fmt.Errorf("water: no output captured")
	}
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	for i := range want {
		if !apps.Close(a.out[i], want[i], 1e-9) {
			return apps.CheckClose(fmt.Sprintf("water: coord %d", i), a.out[i], want[i], 1e-9)
		}
	}
	return nil
}
