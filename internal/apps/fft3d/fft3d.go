// Package fft3d implements the paper's 3D-FFT benchmark (NAS FT kernel):
// repeated 3-D fast Fourier transforms with a transpose between the
// locally-computable dimensions and the distributed one.
//
// Decomposition and sharing pattern (§5.5): array A is distributed in
// i1-slabs, array B in i2-slabs. Each processor FFTs its A-slab along i3
// and i2 locally, then gathers — producer-consumer — the pencils it needs
// from every other processor's slab to build its B-slab, and FFTs along
// i1. The contiguous region a processor reads from one remote slab is
// (n2/P)·n3 complex values; that read granularity versus the consistency
// unit is the dataset knob (4 KB, 8 KB, 16 KB for the paper's 64×64×32,
// 64³, 128³). A one-page checksum array concurrently written by all
// processors and read by the master reproduces the paper's "few useless
// messages" pattern.
package fft3d

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// seqRef bundles Sequential's two results for memoization across
// workload instances of the same configuration (see apps.SeqMemo);
// Check treats the spot slice as read-only.
type seqRef struct {
	spot  []float64
	total float64
}

var seqMemo apps.SeqMemo[seqRef]

// Config selects the dataset.
type Config struct {
	N1, N2, N3 int // grid; N3 must be a power of two; P | N1, P | N2
	Iters      int
	Procs      int
}

// App is one 3D-FFT instance.
type App struct {
	cfg   Config
	a, b  apps.Arr
	sums  apps.Arr // one slot per processor + one total, on one page
	out   []float64
	total float64
}

// New returns a 3D-FFT workload.
func New(cfg Config) *App {
	if cfg.Iters <= 0 {
		cfg.Iters = 2
	}
	return &App{cfg: cfg}
}

// ChunkBytes returns the contiguous bytes one processor reads from one
// remote slab per i1 plane during the transpose — the granularity knob.
func (a *App) ChunkBytes() int {
	return (a.cfg.N2 / a.cfg.Procs) * a.cfg.N3 * 2 * mem.WordSize
}

func (a *App) elems() int { return a.cfg.N1 * a.cfg.N2 * a.cfg.N3 }

func (a *App) arrPages() int {
	return mem.RoundUpPages(a.elems()*2*mem.WordSize) / mem.PageSize
}

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return 2*a.arrPages()*mem.PageSize + 2*mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.a = apps.Arr{Base: sys.AllocPages(a.arrPages())}
	a.b = apps.Arr{Base: sys.AllocPages(a.arrPages())}
	a.sums = apps.Arr{Base: sys.AllocPages(1)}
}

// Complex element (i1,i2,i3) of A lives at word index 2·((i1·n2+i2)·n3+i3).
func (a *App) atA(i1, i2, i3 int) int {
	return 2 * ((i1*a.cfg.N2+i2)*a.cfg.N3 + i3)
}

// B is the transposed array: (i2,i1,i3), contiguous in i3.
func (a *App) atB(i2, i1, i3 int) int {
	return 2 * ((i2*a.cfg.N1+i1)*a.cfg.N3 + i3)
}

func (a *App) initRe(i int) float64 { return float64((i*37+11)%101)/101.0 - 0.5 }
func (a *App) initIm(i int) float64 { return float64((i*53+29)%97)/97.0 - 0.5 }

// cbuf abstracts a strided complex vector so the identical FFT kernel
// runs over DSM memory and over plain slices.
type cbuf interface {
	Get(i int) (re, im float64)
	Set(i int, re, im float64)
	Len() int
}

type dsmBuf struct {
	p      *tmk.Proc
	arr    apps.Arr
	base   int // word index of element 0
	stride int // in complex elements
	n      int
}

func (b dsmBuf) Get(i int) (float64, float64) {
	w := b.base + 2*i*b.stride
	return b.p.ReadF64(b.arr.At(w)), b.p.ReadF64(b.arr.At(w + 1))
}

func (b dsmBuf) Set(i int, re, im float64) {
	w := b.base + 2*i*b.stride
	b.p.WriteF64(b.arr.At(w), re)
	b.p.WriteF64(b.arr.At(w+1), im)
}

func (b dsmBuf) Len() int { return b.n }

type sliceBuf struct {
	s      []float64
	base   int
	stride int
	n      int
}

func (b sliceBuf) Get(i int) (float64, float64) {
	w := b.base + 2*i*b.stride
	return b.s[w], b.s[w+1]
}

func (b sliceBuf) Set(i int, re, im float64) {
	w := b.base + 2*i*b.stride
	b.s[w], b.s[w+1] = re, im
}

func (b sliceBuf) Len() int { return b.n }

// twiddles holds, per stage size 2^s, the stage's butterfly factors
// (cos, sin of -2πk/size for k < size/2), computed once per process with
// the expressions the butterfly loop used to evaluate per element — so
// every value is bit-identical to a fresh evaluation — and published
// with an atomic pointer: concurrent first users may both compute a
// table, and either result is the same.
var twiddles [64]atomic.Pointer[[]float64]

func stageTwiddles(size int) []float64 {
	slot := &twiddles[bits.TrailingZeros(uint(size))]
	if t := slot.Load(); t != nil {
		return *t
	}
	half := size / 2
	ang := -2 * math.Pi / float64(size)
	t := make([]float64, 2*half)
	for k := 0; k < half; k++ {
		t[2*k], t[2*k+1] = math.Cos(ang*float64(k)), math.Sin(ang*float64(k))
	}
	slot.Store(&t)
	return t
}

// fft performs an in-place radix-2 Cooley-Tukey FFT (decimation in time)
// over the buffer. Len must be a power of two. Generic over the buffer
// type so that neither buffer is boxed into an interface per call.
func fft[B cbuf](v B) {
	n := v.Len()
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			ar, ai := v.Get(i)
			br, bi := v.Get(j)
			v.Set(i, br, bi)
			v.Set(j, ar, ai)
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		tw := stageTwiddles(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wr, wi := tw[2*k], tw[2*k+1]
				ar, ai := v.Get(start + k)
				br, bi := v.Get(start + k + half)
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				v.Set(start+k, ar+tr, ai+ti)
				v.Set(start+k+half, ar-tr, ai-ti)
			}
		}
	}
}

// fftOps returns the arithmetic operation count of one length-n FFT
// (butterflies × per-butterfly flops), charged to the virtual clock at
// each kernel invocation.
func fftOps(n int) int {
	lg := 0
	for m := n; m > 1; m >>= 1 {
		lg++
	}
	return (n / 2) * lg * 10
}

// Body implements apps.Workload.
func (a *App) Body(p *tmk.Proc) {
	n1, n2, n3, P := a.cfg.N1, a.cfg.N2, a.cfg.N3, p.NProcs()
	lo1, hi1 := apps.Band(n1, P, p.ID())
	lo2, hi2 := apps.Band(n2, P, p.ID())

	// Owners initialize their A slabs.
	for i1 := lo1; i1 < hi1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				w := a.atA(i1, i2, i3)
				p.WriteF64(a.a.At(w), a.initRe(w/2))
				p.WriteF64(a.a.At(w+1), a.initIm(w/2))
			}
		}
	}
	p.Barrier()

	for it := 0; it < a.cfg.Iters; it++ {
		// Scale A by a factor derived from the previous checksum (reads
		// the master-written total: true sharing, one writer).
		if it > 0 {
			scale := 1.0 + 1e-3*p.ReadF64(a.sums.At(P))
			for i1 := lo1; i1 < hi1; i1++ {
				for i2 := 0; i2 < n2; i2++ {
					for i3 := 0; i3 < n3; i3++ {
						w := a.atA(i1, i2, i3)
						p.WriteF64(a.a.At(w), p.ReadF64(a.a.At(w))*scale)
						p.WriteF64(a.a.At(w+1), p.ReadF64(a.a.At(w+1))*scale)
					}
				}
			}
		}

		// FFT along i3 then i2, local to the A slab.
		for i1 := lo1; i1 < hi1; i1++ {
			for i2 := 0; i2 < n2; i2++ {
				fft(dsmBuf{p: p, arr: a.a, base: a.atA(i1, i2, 0), stride: 1, n: n3})
				p.Compute(fftOps(n3))
			}
			for i3 := 0; i3 < n3; i3++ {
				fft(dsmBuf{p: p, arr: a.a, base: a.atA(i1, 0, i3), stride: n3, n: n2})
				p.Compute(fftOps(n2))
			}
		}
		p.Barrier()

		// Transpose: gather own i2 range from every i1 (remote slabs),
		// then FFT along i1 within the B slab.
		for i1 := 0; i1 < n1; i1++ {
			for i2 := lo2; i2 < hi2; i2++ {
				for i3 := 0; i3 < n3; i3++ {
					re := p.ReadF64(a.a.At(a.atA(i1, i2, i3)))
					im := p.ReadF64(a.a.At(a.atA(i1, i2, i3) + 1))
					p.WriteF64(a.b.At(a.atB(i2, i1, i3)), re)
					p.WriteF64(a.b.At(a.atB(i2, i1, i3)+1), im)
				}
			}
		}
		for i2 := lo2; i2 < hi2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				fft(dsmBuf{p: p, arr: a.b, base: a.atB(i2, 0, i3), stride: n3, n: n1})
				p.Compute(fftOps(n1))
			}
		}

		// Checksum: every processor writes its slot on the shared page;
		// after the barrier the master reads them all and publishes the
		// total (the paper's few-useless-messages pattern).
		var sum float64
		for i2 := lo2; i2 < hi2; i2++ {
			sum += p.ReadF64(a.b.At(a.atB(i2, 0, 0)))
		}
		p.WriteF64(a.sums.At(p.ID()), sum)
		p.Barrier()
		if p.ID() == 0 {
			var tot float64
			for q := 0; q < P; q++ {
				tot += p.ReadF64(a.sums.At(q))
			}
			p.WriteF64(a.sums.At(P), tot)
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.total = p.ReadF64(a.sums.At(P))
		a.out = make([]float64, 0, 64)
		for i := 0; i < 32; i++ {
			a.out = append(a.out,
				p.ReadF64(a.b.At(2*i*17%(a.elems()*2)&^1)))
		}
	}
}

// Sequential computes the reference in plain Go with identical operation
// order (per-processor slab order preserved so FP results match bitwise).
func (a *App) Sequential() (spot []float64, total float64) {
	n1, n2, n3, P := a.cfg.N1, a.cfg.N2, a.cfg.N3, a.cfg.Procs
	A := make([]float64, a.elems()*2)
	B := make([]float64, a.elems()*2)
	sums := make([]float64, P+1)
	for w := 0; w < len(A); w += 2 {
		A[w] = a.initRe(w / 2)
		A[w+1] = a.initIm(w / 2)
	}
	for it := 0; it < a.cfg.Iters; it++ {
		if it > 0 {
			scale := 1.0 + 1e-3*sums[P]
			for w := 0; w < len(A); w++ {
				A[w] *= scale
			}
		}
		for i1 := 0; i1 < n1; i1++ {
			for i2 := 0; i2 < n2; i2++ {
				fft(sliceBuf{s: A, base: a.atA(i1, i2, 0), stride: 1, n: n3})
			}
			for i3 := 0; i3 < n3; i3++ {
				fft(sliceBuf{s: A, base: a.atA(i1, 0, i3), stride: n3, n: n2})
			}
		}
		for i1 := 0; i1 < n1; i1++ {
			for i2 := 0; i2 < n2; i2++ {
				for i3 := 0; i3 < n3; i3++ {
					B[a.atB(i2, i1, i3)] = A[a.atA(i1, i2, i3)]
					B[a.atB(i2, i1, i3)+1] = A[a.atA(i1, i2, i3)+1]
				}
			}
		}
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				fft(sliceBuf{s: B, base: a.atB(i2, 0, i3), stride: n3, n: n1})
			}
		}
		for q := 0; q < P; q++ {
			lo2, hi2 := apps.Band(n2, P, q)
			var sum float64
			for i2 := lo2; i2 < hi2; i2++ {
				sum += B[a.atB(i2, 0, 0)]
			}
			sums[q] = sum
		}
		var tot float64
		for q := 0; q < P; q++ {
			tot += sums[q]
		}
		sums[P] = tot
	}
	spot = make([]float64, 0, 32)
	for i := 0; i < 32; i++ {
		spot = append(spot, B[2*i*17%(a.elems()*2)&^1])
	}
	return spot, sums[P]
}

// Check implements apps.Workload.
func (a *App) Check() error {
	ref := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), func() seqRef {
		spot, total := a.Sequential()
		return seqRef{spot: spot, total: total}
	})
	if a.total != ref.total {
		return fmt.Errorf("fft3d: checksum = %v, want %v", a.total, ref.total)
	}
	return apps.CheckEqual("fft3d: spot", a.out, ref.spot)
}
