// Package tsp implements the paper's Traveling Salesman Problem: a
// branch-and-bound search for the minimum-cost tour.
//
// Shared data structures, as in §5.5: a pool of partially evaluated
// tours, a work queue of pointers into the pool, and the current
// shortest path — all migratory, protected by locks. Workers take a
// partial tour, extend it one city at a time, push promising extensions
// back, and solve deep prefixes by local depth-first search against the
// global bound. Tours are allocated by one processor and consumed by
// another, so diffs for whole pool pages migrate; records the consumer
// skips (pruned siblings colocated on the fetched pages) become useless
// data. Queue accesses are scattered and irregular; aggregation reduces
// messages.
//
// The minimum cost is independent of the (nondeterministic) work order,
// so verification compares against an exact sequential solver.
package tsp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// seqMemo shares the exact sequential optimum across workload instances
// of the same configuration (see apps.SeqMemo) — the exhaustive solver
// dominated sweep time when recomputed per cell.
var seqMemo apps.SeqMemo[int64]

// Tour record layout: 16 words (cost, depth, cities...).
const (
	tCost = iota
	tDepth
	tPath0
	tourWords = 16
	maxCities = tourWords - tPath0
)

// Locks.
const (
	lkQueue = iota
	lkBest
	numLocks
)

// Config selects the dataset.
type Config struct {
	Cities    int // <= 14
	ForkDepth int // prefixes shorter than this are extended via the queue
	Procs     int
}

// App is one TSP instance.
type App struct {
	cfg   Config
	dist  [][]int64
	distf []int64  // dist flattened row-major (the DFS hot path)
	pool  apps.Arr // tour records
	queue apps.Arr // [0] head, [1] tail, [2..] tour indices (FIFO of work)
	best  apps.Arr // [0] best cost so far
	cap   int
	out   int64
}

// New returns a TSP workload.
func New(cfg Config) *App {
	if cfg.Cities > maxCities {
		panic("tsp: too many cities")
	}
	if cfg.ForkDepth <= 0 {
		cfg.ForkDepth = 3
	}
	a := &App{cfg: cfg}
	a.dist = distances(cfg.Cities)
	a.distf = make([]int64, cfg.Cities*cfg.Cities)
	for i, row := range a.dist {
		copy(a.distf[i*cfg.Cities:], row)
	}
	// Generous pool bound: number of prefixes of depth <= ForkDepth.
	capacity := 1
	count := 1
	for d := 1; d <= cfg.ForkDepth; d++ {
		count *= cfg.Cities - d
		capacity += count
	}
	a.cap = capacity + 8
	return a
}

// distances builds a deterministic asymmetric-free distance matrix.
func distances(n int) [][]int64 {
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64((i*73+j*137)%97 + 3)
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return mem.RoundUpPages(a.cap*tourWords*mem.WordSize) +
		mem.RoundUpPages((a.cap+4)*mem.WordSize) + 2*mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return numLocks }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.pool = apps.Arr{Base: sys.AllocPages(
		mem.RoundUpPages(a.cap*tourWords*mem.WordSize) / mem.PageSize)}
	a.queue = apps.Arr{Base: sys.AllocPages(
		mem.RoundUpPages((a.cap+4)*mem.WordSize) / mem.PageSize)}
	a.best = apps.Arr{Base: sys.AllocPages(1)}
}

func (a *App) tour(i, f int) mem.Addr { return a.pool.At(i*tourWords + f) }

// dfs exhaustively extends the prefix summarized by the visited bitmask
// (length depth, ending at city last, cost so far cost) and returns the
// best complete-tour cost found below the given bound. Candidate order,
// pruning, and the per-node Compute charge are exactly the by-the-book
// path-scan formulation's — the bitmask and flattened distance row only
// make each node cheaper in host time, never change what is visited —
// so simulated results are bit-identical.
func (a *App) dfs(p *tmk.Proc, visited uint32, last, depth int, cost, bound int64) int64 {
	n := a.cfg.Cities
	best := bound
	if depth == n {
		total := cost + a.distf[last*n]
		if total < best {
			return total
		}
		return best
	}
	row := a.distf[last*n : last*n+n]
	for c := 1; c < n; c++ {
		if visited&(1<<uint(c)) != 0 {
			continue
		}
		nc := cost + row[c]
		if nc >= best {
			continue
		}
		if got := a.dfs(p, visited|1<<uint(c), c, depth+1, nc, best); got < best {
			best = got
		}
	}
	p.Compute(40 * n) // per-node bound and distance arithmetic
	return best
}

// Sequential solves the instance exactly in plain Go.
func (a *App) Sequential() int64 {
	n := a.cfg.Cities
	best := int64(1) << 40
	path := make([]int, 1, n)
	path[0] = 0
	var rec func(cost int64)
	rec = func(cost int64) {
		depth := len(path)
		last := path[depth-1]
		if depth == n {
			if t := cost + a.dist[last][0]; t < best {
				best = t
			}
			return
		}
		for c := 1; c < n; c++ {
			seen := false
			for _, v := range path {
				if v == c {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			nc := cost + a.dist[last][c]
			if nc >= best {
				continue
			}
			path = append(path, c)
			rec(nc)
			path = path[:depth]
		}
	}
	rec(0)
	return best
}

// Check implements apps.Workload: the parallel search must find the
// exact optimum regardless of work order.
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	if a.out != want {
		return fmt.Errorf("tsp: best = %d, want %d", a.out, want)
	}
	return nil
}
