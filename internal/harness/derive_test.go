package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// withinFrac fails unless a and b agree to the given relative
// tolerance (zero-vs-zero passes).
func withinFrac(t *testing.T, what string, a, b sim.Duration, frac float64) {
	t.Helper()
	hi := a
	if b > hi {
		hi = b
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > frac*float64(hi) {
		t.Errorf("%s: derived %v vs real %v exceeds %.1f%% tolerance",
			what, a, b, 100*frac)
	}
}

// TestDerivedNetworkGridMatchesReal is the replay-safety equivalence
// matrix: every registered application (the paper's eight plus the
// storm stressor) across the contention-free baseline and both
// contended fabrics, derived grid against the same grid forced through
// the engine. For replay-safe apps the derived message and byte totals
// must be bit-identical and times must sit within the pricing-order
// tolerance; schedule-sensitive apps must never report a derived cell
// (the fallback path ran them for real).
func TestDerivedNetworkGridMatchesReal(t *testing.T) {
	networks := []string{"ideal", "bus", "switch"}
	var es []Experiment
	for _, app := range apps.Apps() {
		es = append(es, exp(app, "small"))
	}

	derived, err := RunNetworkComparison(es, Procs, networks)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetNetworkDerivation(false)
	defer SetNetworkDerivation(prev)
	if !prev {
		t.Fatal("network derivation must default on")
	}
	real, err := RunNetworkComparison(es, Procs, networks)
	if err != nil {
		t.Fatal(err)
	}

	for i, e := range es {
		safe := apps.ReplaySafe(e.App)
		nDerived := 0
		for ri, row := range derived[i].Rows {
			for ci, dc := range row.Cells {
				rc := real[i].Rows[ri].Cells[ci]
				name := e.App + "/" + row.Network + "/" + dc.Protocol + "/" + dc.Config
				if rc.Cell.Derived {
					t.Fatalf("%s: forced-real grid reports a derived cell", name)
				}
				if dc.Cell.Derived {
					nDerived++
				}
				if !safe {
					if dc.Cell.Derived {
						t.Errorf("%s: schedule-sensitive app must not derive", name)
					}
					// Totals wobble between real runs of these apps —
					// that is exactly why they are not derivable — so
					// there is nothing further to compare.
					continue
				}
				if dc.Cell.Msgs != rc.Cell.Msgs || dc.Cell.Bytes != rc.Cell.Bytes {
					t.Errorf("%s: derived msgs/bytes %d/%d != real %d/%d",
						name, dc.Cell.Msgs, dc.Cell.Bytes, rc.Cell.Msgs, rc.Cell.Bytes)
				}
				if dc.Cell.SwitchedUnits != rc.Cell.SwitchedUnits {
					t.Errorf("%s: derived switched units %d != real %d",
						name, dc.Cell.SwitchedUnits, rc.Cell.SwitchedUnits)
				}
				// Time and queue re-create the recorded pricing order.
				// On contended models a fresh engine run wobbles by a
				// few percent against ANOTHER fresh run (within-episode
				// arrival order follows goroutine scheduling), so these
				// bounds cover real-vs-real spread too: observed worst
				// ~2.3% time (MGS home/bus) and ~8% queue (Shallow/bus),
				// with the race detector's much coarser goroutine
				// interleaving pushing wobble to ~8% time
				// (Jacobi home/switch) and ~16% queue.
				withinFrac(t, name+" time", dc.Cell.Time, rc.Cell.Time, 0.10)
				withinFrac(t, name+" queue", dc.Cell.Queue, rc.Cell.Queue, 0.25)
			}
		}
		if safe && nDerived == 0 {
			t.Errorf("%s: replay-safe app derived no cells", e.App)
		}
	}
}

// withPool runs fn with the package's sweep pool swapped for one of the
// given width.
func withPool(width int, fn func()) {
	prev := sweepPool
	sweepPool = sweep.New(width)
	defer func() { sweepPool = prev }()
	fn()
}

// fanOut hands every event to each of its sinks in turn, under one lock
// so that they all see the lifecycle events, which arrive from the
// processor goroutines, in one order: identical captures of one run.
type fanOut struct {
	mu    sync.Mutex
	sinks []trace.Sink
}

func (f *fanOut) each(fn func(trace.Sink)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sinks {
		fn(s)
	}
}

func (f *fanOut) Begin(m trace.RunMeta) { f.each(func(s trace.Sink) { s.Begin(m) }) }
func (f *fanOut) TraceLeg(k simnet.MsgKind, src, dst, b int, at, q sim.Duration) {
	f.each(func(s trace.Sink) { s.TraceLeg(k, src, dst, b, at, q) })
}
func (f *fanOut) TraceControl(k simnet.MsgKind, src, dst, b int, at, q sim.Duration) {
	f.each(func(s trace.Sink) { s.TraceControl(k, src, dst, b, at, q) })
}
func (f *fanOut) TraceExchange(k, rk simnet.MsgKind, src, dst, b, rb int, at sim.Duration, x netmodel.ExchangeTiming) {
	f.each(func(s trace.Sink) { s.TraceExchange(k, rk, src, dst, b, rb, at, x) })
}
func (f *fanOut) BarrierEnter(p int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.BarrierEnter(p, at) })
}
func (f *fanOut) BarrierLeave(p, n int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.BarrierLeave(p, n, at) })
}
func (f *fanOut) LockRequest(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockRequest(p, l, at) })
}
func (f *fanOut) LockAcquire(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockAcquire(p, l, at) })
}
func (f *fanOut) LockRelease(p, l int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.LockRelease(p, l, at) })
}
func (f *fanOut) FaultBegin(p, pg, u int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.FaultBegin(p, pg, u, at) })
}
func (f *fanOut) FaultEnd(p, pg int, at sim.Duration) {
	f.each(func(s trace.Sink) { s.FaultEnd(p, pg, at) })
}
func (f *fanOut) ProtocolSwitch(u int, from, to string, n int) {
	f.each(func(s trace.Sink) { s.ProtocolSwitch(u, from, to, n) })
}
func (f *fanOut) Rehome(u, from, to, b int, tr bool) {
	f.each(func(s trace.Sink) { s.Rehome(u, from, to, b, tr) })
}
func (f *fanOut) RunEnd(time sim.Duration, msgs, b int64, q sim.Duration, clocks []sim.Duration) {
	f.each(func(s trace.Sink) { s.RunEnd(time, msgs, b, q, clocks) })
}

// TestDeriveFanOutIsAPureFunctionOfTheCaptures: which worker prices which
// target, and in what order, must not show in the grid. One engine run
// per cell is fanned out into four identical captures; one is derived
// sequentially, the others through startCapture on pools one, two and
// eight wide, and every cell must agree field for field.
func TestDeriveFanOutIsAPureFunctionOfTheCaptures(t *testing.T) {
	networks := netmodel.Names()
	widths := []int{1, 2, 8}
	type fixed struct {
		name  string
		cell  Cell
		sinks []*trace.MemSink // one per width
		want  []Cell           // per network, from sequential Derive
	}
	var caps []*fixed
	for _, app := range []string{"Jacobi", "Ilink", "MGS"} {
		for _, protocol := range []string{"homeless", "home"} {
			e := exp(app, "small")
			ref := trace.NewMemSink()
			f := &fixed{name: app + "/" + protocol}
			sink := &fanOut{sinks: []trace.Sink{ref}}
			for range widths {
				ms := trace.NewMemSink()
				f.sinks = append(f.sinks, ms)
				sink.sinks = append(sink.sinks, ms)
			}
			res, err := apps.Run(e.Make(Procs), tmk.Config{
				Procs: Procs, UnitPages: 1, Protocol: protocol, Network: deriveBaseNetwork, Sink: sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			f.cell = Cell{Time: res.Time, Queue: res.QueueDelay, Msgs: res.Messages, Bytes: res.Bytes}
			for _, network := range networks {
				d, err := ref.Derive(network)
				if err != nil {
					t.Fatalf("%s on %s: %v", f.name, network, err)
				}
				f.want = append(f.want, derivedFrom(f.cell, d))
			}
			caps = append(caps, f)
		}
	}
	for wi, width := range widths {
		tasks := make([]sweep.Task, len(caps))
		for i, f := range caps {
			tasks[i] = sweep.Task{Do: func(ctx context.Context) (any, error) {
				cp := startCapture(ctx, f.sinks[wi], f.cell, networks, true)
				got := make([]Cell, len(networks))
				for ni, network := range networks {
					d, ok := cp.derive(ctx, network)
					if !ok {
						return nil, fmt.Errorf("%s on %s refused", f.name, network)
					}
					got[ni] = derivedFrom(cp.cell, d)
				}
				return got, nil
			}}
		}
		results, err := sweep.New(width).Run(context.Background(), tasks)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, f := range caps {
			for ni, got := range results[i].([]Cell) {
				if got != f.want[ni] {
					t.Errorf("width %d, %s on %s: %+v, sequential %+v", width, f.name, networks[ni], got, f.want[ni])
				}
			}
			if n := f.sinks[wi].Footprint(); n != 0 {
				t.Errorf("width %d, %s: capture still holds %d bytes after its last derivation", width, f.name, n)
			}
		}
	}
}

// engineRuns counts, per experiment, the engine runs in flight: a run
// starts when the harness makes its workload and ends when the result
// has been checked.
type engineRuns struct {
	mu      sync.Mutex
	flying  map[string]int
	highest map[string]int
	total   int
}

type countedWorkload struct {
	apps.Workload
	done func()
}

func (w countedWorkload) Check() error {
	defer w.done()
	return w.Workload.Check()
}

func (r *engineRuns) watch(e Experiment) Experiment {
	inner := e.Make
	e.Make = func(procs int) apps.Workload {
		r.mu.Lock()
		r.total++
		r.flying[e.App]++
		r.highest[e.App] = max(r.highest[e.App], r.flying[e.App])
		r.mu.Unlock()
		return countedWorkload{inner(procs), func() {
			r.mu.Lock()
			r.flying[e.App]--
			r.mu.Unlock()
		}}
	}
	return e
}

// TestNetworkChainRunsOneEngineCellAtATime: derivations fan out across the
// pool, engine runs do not. Two runs of one experiment side by side
// double its resident set (Ilink/large: 199 MB against 111 MB), so
// however wide the pool, an experiment's chain runs its cells — base
// captures, the bus capture, every fallback — one after another. The
// grid itself must not depend on the width either.
func TestNetworkChainRunsOneEngineCellAtATime(t *testing.T) {
	var grids [][]NetworkComparison
	for _, width := range []int{1, 8} {
		runs := &engineRuns{flying: map[string]int{}, highest: map[string]int{}}
		var es []Experiment
		for _, app := range []string{"Jacobi", "Ilink", "MGS", "Barnes"} {
			es = append(es, runs.watch(exp(app, "small")))
		}
		withPool(width, func() {
			ncs, err := RunNetworkComparison(es, Procs, nil)
			if err != nil {
				t.Fatal(err)
			}
			grids = append(grids, ncs)
		})
		for app, n := range runs.highest {
			if n != 1 {
				t.Errorf("width %d: %d engine runs of %s in flight at once", width, n, app)
			}
		}
		if runs.total < 3*len(es) {
			t.Errorf("width %d: only %d engine runs were seen", width, runs.total)
		}
	}
	for ei := range grids[0] {
		for ri, row := range grids[0][ei].Rows {
			for ci, a := range row.Cells {
				b := grids[1][ei].Rows[ri].Cells[ci]
				name := grids[0][ei].App + "/" + row.Network + "/" + a.Protocol + "/" + a.Config
				if a.Protocol == "adaptive" {
					continue // follows host scheduling on contended networks
				}
				if a.Cell.Msgs != b.Cell.Msgs || a.Cell.Bytes != b.Cell.Bytes || a.Cell.Derived != b.Cell.Derived {
					t.Errorf("%s: width 1 %d/%d derived=%v, width 8 %d/%d derived=%v", name,
						a.Cell.Msgs, a.Cell.Bytes, a.Cell.Derived, b.Cell.Msgs, b.Cell.Bytes, b.Cell.Derived)
				}
			}
		}
	}
}
