package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// simTotals are the simulated statistics of one cell that must repeat
// exactly from round to round. Time is compared only where the model
// prices without contention (see cellRef.exactTime).
type simTotals struct {
	Msgs, Bytes int
	Time        int64
}

// cellRef is what the first warm-up round saw for one cell; every later
// round is checked against it.
type cellRef struct {
	totals    simTotals
	exactTime bool
}

// refTable collects the reference totals of a workload's deterministic
// cells. Cells of one round may be checked from several pool workers.
type refTable struct {
	mu   sync.Mutex
	refs map[string]cellRef
}

func newRefTable() *refTable { return &refTable{refs: make(map[string]cellRef)} }

// check records the totals in the first warm-up round and in every
// later round reports whether they repeat. A cell the first round never
// saw is a failure: a check that compares nothing must not pass.
func (t *refTable) check(round int, key string, got simTotals, exactTime bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if round == firstWarmup {
		t.refs[key] = cellRef{totals: got, exactTime: exactTime}
		return nil
	}
	ref, ok := t.refs[key]
	if !ok {
		return fmt.Errorf("%s: no reference totals from the first warm-up round", key)
	}
	if got.Msgs != ref.totals.Msgs || got.Bytes != ref.totals.Bytes ||
		(exactTime && got.Time != ref.totals.Time) {
		return fmt.Errorf("%s: simulated totals changed between rounds: %+v, first seen %+v", key, got, ref.totals)
	}
	return nil
}

// digest hashes the reference totals in key order, so two commits (or
// two seeds, which only reorder the work) can be compared at a glance.
func (t *refTable) digest() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.refs))
	for k := range t.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := newDigest()
	for _, k := range keys {
		r := t.refs[k]
		tm := int64(0)
		if r.exactTime {
			tm = r.totals.Time
		}
		fmt.Fprintf(h, "%s %d %d %d\n", k, r.totals.Msgs, r.totals.Bytes, tm)
	}
	return h.sum()
}

// layerCounts accumulates, over the traced rounds, the counts the
// engine reports about its own layers.
type layerCounts struct {
	mu        sync.Mutex
	cells     int
	twins     int
	diffs     int
	intervals int
	faults    int
	msgs      int
	wireBytes int
	events    int // captured trace events (net-sweep)
	captures  int
	allMsgs   int // instrumented cells only: classified messages
	useless   int
}

func (c *layerCounts) addResult(res *tmk.Result, classify bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	c.twins += res.Twins
	c.diffs += res.DiffsEncoded
	c.intervals += res.Intervals
	c.faults += res.Faults
	c.msgs += res.Messages
	c.wireBytes += res.Bytes
	if classify && res.Stats != nil {
		c.allMsgs += res.Stats.Messages.Total()
		c.useless += res.Stats.Messages.Useless
	}
}

func (c *layerCounts) perCell(v int) float64 {
	if c.cells == 0 {
		return 0
	}
	return float64(v) / float64(c.cells)
}

// engineConfig maps a harness column onto the engine configuration the
// way harness.Run does.
func engineConfig(c harness.Config, procs int, collect bool) tmk.Config {
	return tmk.Config{
		Procs:        procs,
		UnitPages:    c.Unit,
		Dynamic:      c.Dynamic,
		Protocol:     c.Protocol,
		Network:      c.Network,
		Placement:    c.Placement,
		Scale:        c.Scale,
		Barrier:      c.Barrier,
		BarrierRadix: c.BarrierRadix,
		Collect:      collect,
	}
}

// tracedCell runs one cell the way apps.Run does — make the workload,
// build the system, run it, check it against the sequential reference,
// encode the report — with a span around each call, so the traced pass
// can say which layer a round's time went to.
func tracedCell(rec *recorder, parent int32, round int, e harness.Experiment, c harness.Config,
	procs int, collect bool, sink trace.Sink) (*tmk.Result, error) {

	cell := rec.begin("harness.cell", parent, round)
	defer rec.endTagged(cell, e.App)

	s := rec.begin("apps.make", cell, round)
	w := e.Make(procs)
	rec.end(s)

	cfg := engineConfig(c, procs, collect)
	cfg.Sink = sink
	s = rec.begin("tmk.newsystem", cell, round)
	sys, err := apps.NewSystem(w, cfg)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s %s [%s]: %w", e.App, e.Dataset, c.Label, err)
	}

	s = rec.begin("tmk.run", cell, round)
	res := sys.Run(w.Body)
	rec.end(s)

	s = rec.begin("apps.check", cell, round)
	err = w.Check()
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s %s [%s]: %w", e.App, e.Dataset, c.Label, err)
	}

	s = rec.begin("harness.report", cell, round)
	err = encodeReport(e, c, procs, harness.Cell{
		Time: res.Time, Queue: res.QueueDelay, Msgs: res.Messages, Bytes: res.Bytes, Stats: res.Stats,
	})
	rec.end(s)
	return res, err
}

// encodeReport renders one cell the way dsmbench -json does.
func encodeReport(e harness.Experiment, c harness.Config, procs int, cell harness.Cell) error {
	_, err := json.Marshal(harness.CellReport(e, c, procs, cell))
	return err
}

func lookupExperiment(app, dataset string) (harness.Experiment, error) {
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		return harness.Experiment{}, fmt.Errorf("workload %s/%s is not registered", app, dataset)
	}
	return harness.Experiment{App: e.App, Dataset: e.Dataset, Paper: e.Paper, Make: e.Make}, nil
}

// roundResult is what one round of a workload did.
type roundResult struct {
	attempted int
	failed    int
	notes     []string // the first few failures, for the log
}

func (r *roundResult) fail(err error) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, err.Error())
	}
}

// gridBase is what the three grid workloads share: the reference
// totals, the layer counts of the traced pass, and nothing to prepare,
// verify or close unless the workload says otherwise.
type gridBase struct {
	refs   *refTable
	counts layerCounts
}

func (g *gridBase) digest() string      { return g.refs.digest() }
func (g *gridBase) layer() *layerCounts { return &g.counts }
func (g *gridBase) prepare(int)         {}
func (g *gridBase) verify() roundResult { return roundResult{} }
func (g *gridBase) close()              {}

// --- paper-grid --------------------------------------------------------------

// paperGrid is Figures 1 and 2: every experiment under the paper's four
// configurations at 8 processors, instrumentation on, one cell after
// another as dsmbench -figure runs them. The engine does the work here;
// the sweep pool, the trace layer and the service do nothing.
type paperGrid struct {
	gridBase
	quick bool
	cells []paperCell
}

type paperCell struct {
	e     harness.Experiment
	c     harness.Config
	key   string
	exact bool // replay-safe: totals repeat exactly on any host
}

func (g *paperGrid) setup(seed int64) error {
	es := append(harness.Figure1(), harness.Figure2()...)
	if g.quick {
		es = []harness.Experiment{harness.Figure2()[0], harness.Figure2()[5], harness.Figure1()[3]}
	}
	for _, e := range es {
		for _, c := range harness.Configs() {
			g.cells = append(g.cells, paperCell{
				e: e, c: c,
				key:   fmt.Sprintf("%s|%s|%s", e.App, e.Dataset, c.Label),
				exact: apps.ReplaySafe(e.App),
			})
		}
	}
	// The grid is the paper's; the seed only decides the order it is
	// walked in.
	rand.New(rand.NewSource(seed)).Shuffle(len(g.cells), func(i, j int) {
		g.cells[i], g.cells[j] = g.cells[j], g.cells[i]
	})
	g.refs = newRefTable()
	return nil
}

func (g *paperGrid) units() int { return len(g.cells) }

func (g *paperGrid) round(i int, rec *recorder) roundResult {
	var out roundResult
	root := rec.begin("round", noSpan, i)
	defer rec.end(root)
	for _, pc := range g.cells {
		out.attempted++
		var got simTotals
		if rec == nil {
			cell, err := harness.Run(pc.e, pc.c, harness.Procs)
			if err != nil {
				out.fail(err)
				continue
			}
			got = simTotals{cell.Msgs, cell.Bytes, int64(cell.Time)}
		} else {
			res, err := tracedCell(rec, root, i, pc.e, pc.c, harness.Procs, true, nil)
			if err != nil {
				out.fail(err)
				continue
			}
			g.counts.addResult(res, pc.exact)
			got = simTotals{res.Messages, res.Bytes, int64(res.Time)}
		}
		if pc.exact {
			if err := g.refs.check(i, pc.key, got, true); err != nil {
				out.fail(err)
			}
		}
	}
	return out
}

// --- net-sweep ---------------------------------------------------------------

// netSweep is the network-sensitivity grid on message-heavy cells: four
// large datasets at 16 processors, four columns, six interconnects. All
// four applications are replay-safe, so one traced engine run per
// column prices the other five networks by replay: the trace layer, the
// pricing models and the pool's balance carry this workload.
// Instrumentation is off.
type netSweep struct {
	gridBase
	quick bool
	procs int
	es    []harness.Experiment
	pool  *sweep.Pool
}

// staticColumns are the columns the traced pass captures and derives
// itself. The adaptive column's derivation is a twin-run analysis
// inside the harness and is left to the untraced rounds.
func staticColumns() []harness.Config {
	return []harness.Config{
		{Label: "4K", Unit: 1, Protocol: "homeless"},
		{Label: "4K", Unit: 1, Protocol: "home"},
		{Label: "Dyn", Unit: 1, Dynamic: true, Protocol: "homeless"},
	}
}

const deriveBase = "ideal"

func (n *netSweep) setup(int64) error {
	names, dataset := []string{"Ilink", "Barnes", "Storm", "MGS"}, "large"
	n.procs = 16
	if n.quick {
		names, dataset, n.procs = []string{"MGS", "Jacobi"}, "small", 8
	}
	for _, app := range names {
		e, err := lookupExperiment(app, dataset)
		if err != nil {
			return err
		}
		if !apps.ReplaySafe(e.App) {
			return fmt.Errorf("net-sweep needs replay-safe applications; %s is not", e.App)
		}
		n.es = append(n.es, e)
	}
	// The grid and the order the pool is handed it are fixed: on two to
	// four workers the order decides which cells share a worker, and
	// that must not differ between two runs that are to be compared.
	// There is nothing here for the seed to vary.
	n.refs = newRefTable()
	n.pool = sweep.New(0)
	return nil
}

func (n *netSweep) units() int { return len(n.es) * len(netmodel.Names()) * 4 }

func netKey(app, dataset, network, protocol, config string) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s", app, dataset, network, protocol, config)
}

func (n *netSweep) round(i int, rec *recorder) roundResult {
	if rec != nil {
		return n.tracedRound(i, rec)
	}
	var out roundResult
	ncs, err := harness.RunNetworkComparison(n.es, n.procs, nil)
	if err != nil {
		out.attempted = n.units()
		out.failed = n.units()
		out.notes = []string{err.Error()}
		return out
	}
	for _, nc := range ncs {
		for _, row := range nc.Rows {
			for _, c := range row.Cells {
				out.attempted++
				// Static columns send the same stream on every network and
				// the ideal model prices without contention, so these
				// repeat exactly. The adaptive policy reads queue delays,
				// which follow host scheduling on the contended models.
				exactTime := row.Network == deriveBase
				if c.Protocol == "adaptive" && !exactTime {
					continue
				}
				got := simTotals{c.Cell.Msgs, c.Cell.Bytes, int64(c.Cell.Time)}
				if err := n.refs.check(i, netKey(nc.App, nc.Dataset, row.Network, c.Protocol, c.Config), got, exactTime); err != nil {
					out.fail(err)
				}
			}
		}
	}
	return out
}

// tracedRound does for the static columns what the harness's derivation
// task does — capture on the base network, then derive every other
// network from the capture — one pool task per experiment, with spans.
func (n *netSweep) tracedRound(i int, rec *recorder) roundResult {
	var (
		out roundResult
		mu  sync.Mutex
	)
	root := rec.begin("round", noSpan, i)
	defer rec.end(root)
	networks := netmodel.Names()
	tasks := make([]sweep.Task, len(n.es))
	for ti, e := range n.es {
		tasks[ti] = sweep.Task{Do: func(context.Context) (any, error) {
			task := rec.begin("harness.derive_task", root, i)
			defer rec.end(task)
			for _, c := range staticColumns() {
				c.Network = deriveBase
				ms := trace.NewMemSink()
				res, err := tracedCell(rec, task, i, e, c, n.procs, false, ms)
				mu.Lock()
				out.attempted += len(networks)
				if err != nil {
					out.failed += len(networks)
					out.notes = append(out.notes, err.Error())
					mu.Unlock()
					continue
				}
				mu.Unlock()
				n.counts.addResult(res, false)
				base := simTotals{res.Messages, res.Bytes, int64(res.Time)}
				if err := n.refs.check(i, netKey(e.App, e.Dataset, deriveBase, c.Protocol, c.Label), base, true); err != nil {
					mu.Lock()
					out.fail(err)
					mu.Unlock()
				}
				n.counts.mu.Lock()
				n.counts.events += ms.Len()
				n.counts.captures++
				n.counts.mu.Unlock()
				for _, network := range networks {
					if network == deriveBase {
						continue
					}
					s := rec.begin("trace.derive", task, i)
					d, err := ms.Derive(network)
					rec.end(s)
					if err == nil {
						// Against the engine run of this very cell in the first warm-up round.
						err = n.refs.check(i, netKey(e.App, e.Dataset, network, c.Protocol, c.Label),
							simTotals{Msgs: int(d.Msgs), Bytes: int(d.Bytes)}, false)
					}
					if err == nil {
						s = rec.begin("harness.report", task, i)
						c.Network = network
						err = encodeReport(e, c, n.procs, harness.Cell{
							Time: d.Time, Queue: d.Queue, Msgs: int(d.Msgs), Bytes: int(d.Bytes), Derived: true,
						})
						rec.end(s)
					}
					if err != nil {
						mu.Lock()
						out.fail(fmt.Errorf("%s %s %s/%s: %w", e.App, e.Dataset, c.Protocol, network, err))
						mu.Unlock()
					}
				}
			}
			return nil, nil
		}}
	}
	if _, err := n.pool.Run(context.Background(), tasks); err != nil {
		out.fail(err)
	}
	return out
}

// verify runs one more round with every cell put through the engine and
// holds it against the same references: a derived cell is only worth its
// speed if it says what a real run of that very cell says. It comes after
// the timed rounds, and after peak memory is read, because an all-engine
// round is not this workload: it runs two cells of one experiment at a
// time where a derived round runs two experiments, and peaks 40 MB higher.
func (n *netSweep) verify() roundResult {
	prev := harness.SetNetworkDerivation(false)
	defer harness.SetNetworkDerivation(prev)
	return n.round(0, nil)
}

// --- scale-256 ---------------------------------------------------------------

// scale256 is one column of the scaling sweep: Storm/large at 256
// processors under both static protocols on the ideal and the bus
// model, sparse clocks and tree barriers. The same clock, interval and
// barrier layers as paper-grid, used the other way: 256 goroutines,
// sparse stamps, log-depth barriers.
type scale256 struct {
	gridBase
	quick  bool
	procs  int
	e      harness.Experiment
	protos []string
	nets   []string
	mode   harness.ScalingMode
	pool   *sweep.Pool
}

func (s *scale256) setup(int64) error {
	dataset := "large"
	s.procs = 256
	if s.quick {
		dataset, s.procs = "small", 32
	}
	e, err := lookupExperiment("Storm", dataset)
	if err != nil {
		return err
	}
	s.e = e
	// Four fixed cells in a fixed order (see netSweep.setup): there is
	// nothing here for the seed to vary.
	s.protos = []string{"homeless", "home"}
	s.nets = []string{"ideal", "bus"}
	s.mode = harness.ScalingModes()[1] // sparse/tree
	s.refs = newRefTable()
	s.pool = sweep.New(0)
	return nil
}

func (s *scale256) units() int { return len(s.protos) * len(s.nets) }

func (s *scale256) check(out *roundResult, round int, proto, network string, got simTotals) {
	key := fmt.Sprintf("%s|%s|p%d|%s|%s", s.e.App, s.e.Dataset, s.procs, proto, network)
	if err := s.refs.check(round, key, got, network == "ideal"); err != nil {
		out.fail(err)
	}
}

func (s *scale256) round(i int, rec *recorder) roundResult {
	if rec != nil {
		return s.tracedRound(i, rec)
	}
	var out roundResult
	out.attempted = s.units()
	curves, err := harness.RunScaling(s.e, s.protos, s.nets, []int{s.procs}, []harness.ScalingMode{s.mode})
	if err != nil {
		out.failed = s.units()
		out.notes = []string{err.Error()}
		return out
	}
	for _, cv := range curves {
		for _, pt := range cv.Points {
			s.check(&out, i, cv.Protocol, cv.Network, simTotals{pt.Cell.Msgs, pt.Cell.Bytes, int64(pt.Cell.Time)})
		}
	}
	return out
}

func (s *scale256) tracedRound(i int, rec *recorder) roundResult {
	var (
		out roundResult
		mu  sync.Mutex
	)
	out.attempted = s.units()
	root := rec.begin("round", noSpan, i)
	defer rec.end(root)
	var tasks []sweep.Task
	for _, proto := range s.protos {
		for _, network := range s.nets {
			c := harness.Config{
				Label: "4K", Unit: 1, Protocol: proto, Network: network,
				Scale: s.mode.Scale, Barrier: s.mode.Barrier, BarrierRadix: s.mode.Radix,
			}
			tasks = append(tasks, sweep.Task{Do: func(context.Context) (any, error) {
				// RunScaling starts every cell from a settled runtime.
				settle := rec.begin("harness.settle", root, i)
				runtime.GC()
				debug.FreeOSMemory()
				rec.end(settle)
				res, err := tracedCell(rec, root, i, s.e, c, s.procs, false, nil)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					out.fail(err)
					return nil, nil
				}
				s.counts.addResult(res, false)
				s.check(&out, i, proto, network, simTotals{res.Messages, res.Bytes, int64(res.Time)})
				return nil, nil
			}})
		}
	}
	if _, err := s.pool.Run(context.Background(), tasks); err != nil {
		out.fail(err)
	}
	return out
}
