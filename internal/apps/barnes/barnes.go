// Package barnes implements the paper's Barnes application (SPLASH
// Barnes-Hut): hierarchical N-body simulation under gravity.
//
// Structure and sharing pattern (§5.5): the oct-tree is built
// sequentially by a master processor (one writer; everyone reads it), and
// the force computation is done in parallel by all processors. Bodies are
// assigned cyclically, so every page of the body array holds bodies of
// all processors: fine-grained writes cause heavy write-write false
// sharing, but the extensive true sharing (every processor reads most
// body positions during traversal) keeps useless messages rare, while
// per-body private fields (velocities) travel as piggybacked useless
// data. Each processor touches a large region, so aggregation wins.
//
// The algorithmic core is written once against apps.Mem and runs
// identically in the DSM and the sequential reference, giving bitwise
// verification.
package barnes

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
	Bodies int
	Steps  int
	Theta  float64 // opening angle (paper-standard 0.7 default)
	Procs  int
}

// Body layout: 8 words per body.
const (
	bX = iota
	bY
	bZ
	bMass
	bVX // velocity: private to the owner, piggybacked useless to others
	bVY
	bVZ
	bPad
	bodyWords
)

// Tree node layout: 16 words per node.
const (
	nCX = iota // cell center
	nCY
	nCZ
	nHalf
	nMass // total mass (0 while unfilled)
	nComX
	nComY
	nComZ
	nChild0   // 8 children: 0 empty, >0 node index+1, <0 -(body index+1)
	nodeWords = nChild0 + 8
)

// App is one Barnes instance.
type App struct {
	cfg    Config
	bodies apps.Arr
	tree   apps.Arr
	nnodes apps.Arr // shared scalar: node count after build
	out    []float64
}

// New returns a Barnes-Hut workload.
func New(cfg Config) *App {
	if cfg.Steps <= 0 {
		cfg.Steps = 2
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.7
	}
	return &App{cfg: cfg}
}

func (a *App) maxNodes() int { return 4 * a.cfg.Bodies }

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return mem.RoundUpPages(a.cfg.Bodies*bodyWords*mem.WordSize) +
		mem.RoundUpPages(a.maxNodes()*nodeWords*mem.WordSize) + 2*mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.bodies = apps.Arr{Base: sys.AllocPages(
		mem.RoundUpPages(a.cfg.Bodies*bodyWords*mem.WordSize) / mem.PageSize)}
	a.tree = apps.Arr{Base: sys.AllocPages(
		mem.RoundUpPages(a.maxNodes()*nodeWords*mem.WordSize) / mem.PageSize)}
	a.nnodes = apps.Arr{Base: sys.AllocPages(1)}
}

func (a *App) body(i, f int) mem.Addr { return a.bodies.At(i*bodyWords + f) }
func (a *App) node(n, f int) mem.Addr { return a.tree.At(n*nodeWords + f) }

// initBody gives body i a deterministic position/mass in [-1,1]^3. The
// coordinate moduli are distinct primes larger than any supported body
// count, so no two bodies coincide (coincident bodies would split the
// tree forever).
func initBody(i int) (x, y, z, m float64) {
	h := func(mult, mod int) float64 {
		return float64((i*mult+mod/3)%mod)/float64(mod)*2 - 1
	}
	return h(97, 5003), h(131, 5009), h(173, 5011), 0.5 + float64(i%7)/7.0
}

// buildTree inserts all bodies into a fresh oct-tree rooted at node 0
// and fills mass/centre-of-mass bottom-up. Returns the node count.
func (a *App) buildTree(m apps.Mem) int64 {
	n := a.cfg.Bodies
	// Bounding cube.
	bound := 0.0
	for i := 0; i < n; i++ {
		for f := bX; f <= bZ; f++ {
			if v := math.Abs(m.ReadF64(a.body(i, f))); v > bound {
				bound = v
			}
		}
	}
	bound += 1e-9

	next := int64(1)
	// Root node.
	m.WriteF64(a.node(0, nCX), 0)
	m.WriteF64(a.node(0, nCY), 0)
	m.WriteF64(a.node(0, nCZ), 0)
	m.WriteF64(a.node(0, nHalf), bound)
	m.WriteF64(a.node(0, nMass), 0)
	for c := 0; c < 8; c++ {
		m.WriteI64(a.node(0, nChild0+c), 0)
	}

	var insert func(nd int64, b int)
	insert = func(nd int64, b int) {
		bx := m.ReadF64(a.body(b, bX))
		by := m.ReadF64(a.body(b, bY))
		bz := m.ReadF64(a.body(b, bZ))
		cx := m.ReadF64(a.node(int(nd), nCX))
		cy := m.ReadF64(a.node(int(nd), nCY))
		cz := m.ReadF64(a.node(int(nd), nCZ))
		half := m.ReadF64(a.node(int(nd), nHalf))
		oct := 0
		if bx >= cx {
			oct |= 1
		}
		if by >= cy {
			oct |= 2
		}
		if bz >= cz {
			oct |= 4
		}
		ch := m.ReadI64(a.node(int(nd), nChild0+oct))
		switch {
		case ch == 0:
			m.WriteI64(a.node(int(nd), nChild0+oct), -int64(b)-1)
		case ch > 0:
			insert(ch-1, b)
		default:
			// Occupied by a body: split the octant.
			other := int(-ch) - 1
			if next >= int64(a.maxNodes()) {
				panic("barnes: tree overflow")
			}
			nn := next
			next++
			q := half / 2
			ncx, ncy, ncz := cx-q, cy-q, cz-q
			if oct&1 != 0 {
				ncx = cx + q
			}
			if oct&2 != 0 {
				ncy = cy + q
			}
			if oct&4 != 0 {
				ncz = cz + q
			}
			m.WriteF64(a.node(int(nn), nCX), ncx)
			m.WriteF64(a.node(int(nn), nCY), ncy)
			m.WriteF64(a.node(int(nn), nCZ), ncz)
			m.WriteF64(a.node(int(nn), nHalf), q)
			m.WriteF64(a.node(int(nn), nMass), 0)
			for c := 0; c < 8; c++ {
				m.WriteI64(a.node(int(nn), nChild0+c), 0)
			}
			m.WriteI64(a.node(int(nd), nChild0+oct), nn+1)
			insert(nn, other)
			insert(nn, b)
		}
	}
	for i := 0; i < n; i++ {
		insert(0, i)
	}

	// Centre of mass, bottom-up (post-order).
	var fill func(nd int64) (mass, mx, my, mz float64)
	fill = func(nd int64) (mass, mx, my, mz float64) {
		for c := 0; c < 8; c++ {
			ch := m.ReadI64(a.node(int(nd), nChild0+c))
			switch {
			case ch == 0:
			case ch > 0:
				cm, cmx, cmy, cmz := fill(ch - 1)
				mass += cm
				mx += cmx
				my += cmy
				mz += cmz
			default:
				b := int(-ch) - 1
				bm := m.ReadF64(a.body(b, bMass))
				mass += bm
				mx += bm * m.ReadF64(a.body(b, bX))
				my += bm * m.ReadF64(a.body(b, bY))
				mz += bm * m.ReadF64(a.body(b, bZ))
			}
		}
		m.WriteF64(a.node(int(nd), nMass), mass)
		m.WriteF64(a.node(int(nd), nComX), mx/mass)
		m.WriteF64(a.node(int(nd), nComY), my/mass)
		m.WriteF64(a.node(int(nd), nComZ), mz/mass)
		return mass, mx, my, mz
	}
	fill(0)
	return next
}

// accel computes the acceleration on body b by traversing the tree.
func (a *App) accel(m apps.Mem, b int, theta float64) (ax, ay, az float64) {
	const eps2 = 1e-4
	bx := m.ReadF64(a.body(b, bX))
	by := m.ReadF64(a.body(b, bY))
	bz := m.ReadF64(a.body(b, bZ))

	interact := func(px, py, pz, pm float64) {
		dx, dy, dz := px-bx, py-by, pz-bz
		d2 := dx*dx + dy*dy + dz*dz + eps2
		inv := pm / (d2 * math.Sqrt(d2))
		ax += dx * inv
		ay += dy * inv
		az += dz * inv
		m.Compute(25) // the real app's per-interaction arithmetic
	}

	var walk func(nd int64)
	walk = func(nd int64) {
		half := m.ReadF64(a.node(int(nd), nHalf))
		px := m.ReadF64(a.node(int(nd), nComX))
		py := m.ReadF64(a.node(int(nd), nComY))
		pz := m.ReadF64(a.node(int(nd), nComZ))
		dx, dy, dz := px-bx, py-by, pz-bz
		d2 := dx*dx + dy*dy + dz*dz
		if (2*half)*(2*half) < theta*theta*d2 {
			interact(px, py, pz, m.ReadF64(a.node(int(nd), nMass)))
			return
		}
		for c := 0; c < 8; c++ {
			ch := m.ReadI64(a.node(int(nd), nChild0+c))
			switch {
			case ch == 0:
			case ch > 0:
				walk(ch - 1)
			default:
				ob := int(-ch) - 1
				if ob == b {
					continue
				}
				interact(
					m.ReadF64(a.body(ob, bX)),
					m.ReadF64(a.body(ob, bY)),
					m.ReadF64(a.body(ob, bZ)),
					m.ReadF64(a.body(ob, bMass)))
			}
		}
	}
	walk(0)
	return ax, ay, az
}

// advance updates body b from its freshly computed acceleration.
func (a *App) advance(m apps.Mem, b int, ax, ay, az float64) {
	const dt = 0.01
	vx := m.ReadF64(a.body(b, bVX)) + ax*dt
	vy := m.ReadF64(a.body(b, bVY)) + ay*dt
	vz := m.ReadF64(a.body(b, bVZ)) + az*dt
	m.WriteF64(a.body(b, bVX), vx)
	m.WriteF64(a.body(b, bVY), vy)
	m.WriteF64(a.body(b, bVZ), vz)
	m.WriteF64(a.body(b, bX), m.ReadF64(a.body(b, bX))+vx*dt)
	m.WriteF64(a.body(b, bY), m.ReadF64(a.body(b, bY))+vy*dt)
	m.WriteF64(a.body(b, bZ), m.ReadF64(a.body(b, bZ))+vz*dt)
}

// Body implements apps.Workload. Bodies are assigned cyclically; the
// positions written in step t are read by everyone in step t+1.
func (a *App) Body(p *tmk.Proc) {
	n, P := a.cfg.Bodies, p.NProcs()

	// Cyclic initialization: owners write their own bodies.
	for i := p.ID(); i < n; i += P {
		x, y, z, mass := initBody(i)
		p.WriteF64(a.body(i, bX), x)
		p.WriteF64(a.body(i, bY), y)
		p.WriteF64(a.body(i, bZ), z)
		p.WriteF64(a.body(i, bMass), mass)
	}
	p.Barrier()

	for step := 0; step < a.cfg.Steps; step++ {
		// The master builds the tree sequentially.
		if p.ID() == 0 {
			cnt := a.buildTree(p)
			p.WriteI64(a.nnodes.At(0), cnt)
		}
		p.Barrier()

		// Parallel force computation over own bodies. Accelerations go
		// to a processor-private buffer first so every traversal sees
		// the consistent pre-step snapshot (positions written here
		// become visible to others only at the next barrier, and must
		// not feed our own later traversals either).
		acc := make([]float64, 0, 3*(n/P+1))
		for i := p.ID(); i < n; i += P {
			ax, ay, az := a.accel(p, i, a.cfg.Theta)
			acc = append(acc, ax, ay, az)
		}
		k := 0
		for i := p.ID(); i < n; i += P {
			a.advance(p, i, acc[k], acc[k+1], acc[k+2])
			k += 3
		}
		p.Barrier()
	}

	if p.ID() == 0 {
		a.out = make([]float64, 0, 3*n)
		for i := 0; i < n; i++ {
			a.out = append(a.out,
				p.ReadF64(a.body(i, bX)),
				p.ReadF64(a.body(i, bY)),
				p.ReadF64(a.body(i, bZ)))
		}
	}
}

// Sequential runs the identical algorithm on local memory.
func (a *App) Sequential() []float64 {
	m := apps.NewLocalMem(a.SegmentBytes())
	n := a.cfg.Bodies
	for i := 0; i < n; i++ {
		x, y, z, mass := initBody(i)
		m.WriteF64(a.body(i, bX), x)
		m.WriteF64(a.body(i, bY), y)
		m.WriteF64(a.body(i, bZ), z)
		m.WriteF64(a.body(i, bMass), mass)
	}
	for step := 0; step < a.cfg.Steps; step++ {
		a.buildTree(m)
		acc := make([]float64, 3*n)
		for i := 0; i < n; i++ {
			acc[3*i], acc[3*i+1], acc[3*i+2] = a.accel(m, i, a.cfg.Theta)
		}
		for i := 0; i < n; i++ {
			a.advance(m, i, acc[3*i], acc[3*i+1], acc[3*i+2])
		}
	}
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out,
			m.ReadF64(a.body(i, bX)),
			m.ReadF64(a.body(i, bY)),
			m.ReadF64(a.body(i, bZ)))
	}
	return out
}

// Check implements apps.Workload (bitwise: same code, same order).
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	return apps.CheckEqual("barnes: coord", a.out, want)
}
