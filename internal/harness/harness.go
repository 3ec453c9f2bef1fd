// Package harness defines the paper's experiments — Table 1 and Figures
// 1–3 plus the §5.1 platform microbenchmarks — and renders their results
// as text tables. Each experiment is an application × dataset; each is
// run under the four configurations the paper compares: 4 KB, 8 KB, and
// 16 KB static consistency units, and dynamic aggregation.
//
// Dataset sizes are scaled from the paper's full-size inputs but
// preserve the granularity-to-page ratios (each registry entry's Paper
// field names the input it stands in for; `dsmrun -list` prints it as
// "(paper: …)"), so the figures' *shapes* — who wins, by what factor,
// where the 8 K→16 K crossovers fall — are the reproduction target,
// not absolute seconds.
//
// Every sweep is a grid of Points run by RunGrid on one shared pool;
// runCell is the only place a Config becomes an engine run.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/instrument"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// Procs is the paper's processor count.
const Procs = 8

// Experiment is one application × dataset: the registry's entry itself.
type Experiment = apps.Entry

// Config is one engine configuration column.
type Config struct {
	Label   string
	Unit    int // consistency unit in pages
	Dynamic bool
	// Protocol names the coherence protocol (tmk.ProtocolNames);
	// empty selects the paper's homeless protocol.
	Protocol string
	// Network names the interconnect timing model (netmodel.Names);
	// empty selects the paper's contention-free "ideal" arithmetic.
	Network string
	// Placement names the home-placement policy (tmk.PlacementNames);
	// empty selects the paper-era round-robin homes ("rr").
	Placement string
	// Scale names the engine representation (tmk.ScaleSparse or
	// tmk.ScaleDense); empty selects the sparse default. Barrier names
	// the barrier fabric (tmk.BarrierNames); empty selects the
	// centralized golden reference. BarrierRadix is the tree fabric's
	// fan-in (zero = tmk.DefaultBarrierRadix; ignored by "central").
	Scale        string
	Barrier      string
	BarrierRadix int
}

// Configs are the paper's four configurations, in figure order.
func Configs() []Config {
	return []Config{
		{Label: "4K", Unit: 1},
		{Label: "8K", Unit: 2},
		{Label: "16K", Unit: 4},
		{Label: "Dyn", Unit: 1, Dynamic: true},
	}
}

// ConfigByLabel resolves one of the paper's configuration labels
// ("4K", "8K", "16K", "Dyn"; case-insensitive).
func ConfigByLabel(label string) (Config, bool) {
	for _, c := range Configs() {
		if strings.EqualFold(c.Label, label) {
			return c, true
		}
	}
	return Config{}, false
}

// LabelFor names the configuration with the given unit size and
// aggregation mode in the paper's nomenclature.
func LabelFor(unit int, dynamic bool) string {
	if dynamic {
		return "Dyn"
	}
	return fmt.Sprintf("%dK", 4*unit)
}

// Cell is the outcome of one experiment under one configuration.
type Cell struct {
	Time  sim.Duration
	Queue sim.Duration // cumulative network contention delay
	Msgs  int
	Bytes int
	// SwitchedUnits carries the adaptive protocol's per-run accounting
	// (zero under the static protocols): how many units changed engine
	// at least once.
	SwitchedUnits int
	// Rehomes and RehomeBytes carry the placement layer's accounting
	// (zero under "rr"): home moves after construction, and the wire
	// bytes of the priced home-state transfers among them. HandoffBytes
	// is the wire total of adaptive homeless→home image pulls.
	Rehomes      int
	RehomeBytes  int
	HandoffBytes int
	Stats        *instrument.Stats
	// Derived marks a cell whose totals were priced by replaying
	// another cell's captured trace through this cell's network model
	// instead of executing the engine (see derive.go). Message and byte
	// totals are exact; Time and Queue re-create the recorded pricing
	// order, which on contended models can differ from a fresh run by
	// the same sub-percent wobble two real runs show.
	Derived bool
	// Digest is the engine run's tmk.Result.Digest. A derived cell has
	// no engine Result and leaves it empty.
	Digest string
}

// Run executes one experiment under one configuration with verification.
func Run(e Experiment, c Config, procs int) (Cell, error) {
	return runCell(e, c, procs, true, nil)
}

// runCell is the one place a harness configuration becomes an engine
// run. It is Run with the §5.3 instrumentation switchable — the
// network- and placement-sensitivity sweeps render and serialize only
// timing and protocol accounting (no Stats), so they run with
// collection off: the engine then skips the word-usefulness collector
// and keeps only O(1) network totals, identical output for a fraction
// of the work. Anything that reads Cell.Stats must pass collect=true.
// A non-nil sink receives the run's compact trace capture (the
// derivation base of network-sweep cells). Errors name the cell's axes.
func runCell(e Experiment, c Config, procs int, collect bool, sink trace.Sink) (Cell, error) {
	cfg, err := Point{e, c, procs}.engineConfig(collect)
	if err != nil {
		return Cell{}, err
	}
	cfg.Sink = sink
	res, err := apps.Run(e.Make(procs), cfg)
	if err != nil {
		return Cell{}, fmt.Errorf("%s %s [%s] protocol %s, network %s, placement %s, %d procs: %w",
			e.App, e.Dataset, c.Label, cfg.Protocol, cfg.Network, cfg.Placement, procs, err)
	}
	return Cell{
		Time: res.Time, Queue: res.QueueDelay,
		Msgs: res.Messages, Bytes: res.Bytes,
		SwitchedUnits: res.SwitchedUnits,
		Rehomes:       res.Rehomes,
		RehomeBytes:   res.RehomeBytes,
		HandoffBytes:  res.HandoffBytes,
		Stats:         res.Stats,
		Digest:        res.Digest(),
	}, nil
}

// --- sweep scheduling --------------------------------------------------------

// sweepPool is the shared work-stealing scheduler the comparison
// grids run on: one pool of GOMAXPROCS workers for the process, so
// concurrent comparisons share the machine's run budget instead of
// multiplying it.
var sweepPool = sweep.New(0)

// Point is one cell of a grid: an experiment under one configuration
// at one processor count.
type Point struct {
	Exp    Experiment
	Config Config
	Procs  int
}

// engineConfig is the engine configuration point p runs under, resolved
// (tmk.Config.Resolve): names canonical, defaults filled. Its error names
// the cell.
func (p Point) engineConfig(collect bool) (tmk.Config, error) {
	c := p.Config
	cfg, err := tmk.Config{
		Procs:        p.Procs,
		UnitPages:    c.Unit,
		Dynamic:      c.Dynamic,
		Protocol:     c.Protocol,
		Network:      c.Network,
		Placement:    c.Placement,
		Scale:        c.Scale,
		Barrier:      c.Barrier,
		BarrierRadix: c.BarrierRadix,
		Collect:      collect,
	}.Resolve()
	if err != nil {
		return tmk.Config{}, fmt.Errorf("%s %s [%s] protocol %q, network %q, placement %q, %d procs: %w",
			p.Exp.App, p.Exp.Dataset, c.Label, c.Protocol, c.Network, c.Placement, p.Procs, err)
	}
	return cfg, nil
}

// RunGrid runs every point on the sweep pool — points with equal cell
// keys run the engine once and share the cell — and returns the cells
// in point order. Every cell is verified against the sequential
// reference; a point that does not resolve fails the grid before any
// cell runs, and the first failing run cancels the rest, its error
// naming the cell's axes.
func RunGrid(points []Point, collect bool) ([]Cell, error) {
	tasks := make([]sweep.Task, len(points))
	for i, p := range points {
		var err error
		if tasks[i], err = cellTask(p, collect); err != nil {
			return nil, err
		}
	}
	results, err := sweepPool.Run(context.Background(), tasks)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(results))
	for i, r := range results {
		cells[i] = r.(Cell)
	}
	return cells, nil
}

// cellTask wraps one point as a sweep task yielding its Cell. The task's
// dedup key is the point's resolved engine configuration, so points that
// spell one cell differently (an empty network and "ideal") share one
// engine run.
func cellTask(p Point, collect bool) (sweep.Task, error) {
	cfg, err := p.engineConfig(collect)
	if err != nil {
		return sweep.Task{}, err
	}
	return sweep.Task{
		Key: fmt.Sprintf("%s|%s|%+v", p.Exp.App, p.Exp.Dataset, cfg),
		Do: func(context.Context) (any, error) {
			return runCell(p.Exp, p.Config, p.Procs, collect, nil)
		},
	}, nil
}

// --- experiment definitions -------------------------------------------------

// exp is a view over one registry entry. Every figure/table experiment
// is defined in its app package's registration; the harness only
// selects and orders them. A missing entry is a programming error
// (figures name only registered datasets), so it panics when the
// figure is requested — the harness tests exercise every figure, so
// a renamed registration fails the suite immediately.
func exp(app, dataset string) Experiment {
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		panic(fmt.Sprintf("harness: workload %s/%s is not registered", app, dataset))
	}
	return e
}

// Figure1 returns the applications whose false-sharing behaviour is
// input-size independent: Barnes, Ilink, TSP, Water.
func Figure1() []Experiment {
	return []Experiment{
		exp("Barnes", "512"),
		exp("Ilink", "8x8192"),
		exp("TSP", "12-city"),
		exp("Water", "96"),
	}
}

// Figure2 returns the size-sensitive applications, one experiment per
// dataset, ordered as in the paper's Figure 2.
func Figure2() []Experiment {
	return []Experiment{
		exp("Jacobi", "128x512 (row=1pg)"),
		exp("Jacobi", "64x1024 (row=2pg)"),
		exp("3D-FFT", "8x8x128 (chunk=1pg)"),
		exp("3D-FFT", "8x8x256 (chunk=2pg)"),
		exp("3D-FFT", "8x8x512 (chunk=4pg)"),
		exp("MGS", "512x32 (vec=1pg)"),
		exp("MGS", "1024x24 (vec=2pg)"),
		exp("MGS", "2048x16 (vec=4pg)"),
		exp("Shallow", "512x16 (col=1pg)"),
		exp("Shallow", "1024x16 (col=2pg)"),
		exp("Shallow", "2048x16 (col=4pg)"),
	}
}

// Table1 returns one primary experiment per application.
func Table1() []Experiment {
	f1 := Figure1()
	return []Experiment{
		f1[0],        // Barnes
		f1[1],        // Ilink
		Figure2()[3], // 3D-FFT medium
		Figure2()[5], // MGS vec=1pg
		Figure2()[8], // Shallow col=1pg
		Figure2()[0], // Jacobi row=1pg
		f1[2],        // TSP
		f1[3],        // Water
	}
}

// Figure3 returns the signature experiments (Barnes, Ilink, Water, MGS).
func Figure3() []Experiment {
	f1 := Figure1()
	return []Experiment{f1[0], f1[1], f1[3], Figure2()[5]}
}

// --- grids and their renderers ---------------------------------------------
//
// Each table and figure is a point list built by one *Points function
// and run by RunGrid; its renderer reads (points, cells) back in the
// same order, and dsmbench -json reports the same cells as CellReports.

// eachExperiment calls fn once per run of consecutive points that share
// an experiment, with that run's points and cells.
func eachExperiment(points []Point, cells []Cell, fn func(e Experiment, points []Point, cells []Cell)) {
	for i := 0; i < len(points); {
		e, j := points[i].Exp, i+1
		for j < len(points) && points[j].Exp.App == e.App && points[j].Exp.Dataset == e.Dataset {
			j++
		}
		fn(e, points[i:j], cells[i:j])
		i = j
	}
}

func norm(v, base float64) string {
	if base == 0 {
		return "   -  "
	}
	return fmt.Sprintf("%6.3f", v/base)
}

// FigurePoints is each experiment under each configuration at the
// paper's processor count: the grid of RenderFigure and RenderSignature,
// run with instrumentation on.
func FigurePoints(es []Experiment, cfgs []Config) []Point {
	var points []Point
	for _, e := range es {
		for _, c := range cfgs {
			points = append(points, Point{e, c, Procs})
		}
	}
	return points
}

// RenderFigure prints each experiment's normalized breakdown rows (the
// paper's three bar groups: execution time, messages, data) for each
// configuration, all normalized to its first (the 4 KB column of
// Configs). It reads the collected cells of FigurePoints.
func RenderFigure(w io.Writer, points []Point, cells []Cell) {
	eachExperiment(points, cells, func(e Experiment, points []Point, cells []Cell) {
		base := cells[0]
		fmt.Fprintf(w, "%s %s  (paper: %s)\n", e.App, e.Dataset, e.Paper)
		fmt.Fprintf(w, "  %-26s", "")
		for _, p := range points {
			fmt.Fprintf(w, "%8s", p.Config.Label)
		}
		fmt.Fprintln(w)

		row := func(label string, f func(Cell) float64, baseV float64) {
			fmt.Fprintf(w, "  %-26s", label)
			for _, c := range cells {
				fmt.Fprintf(w, "%8s", norm(f(c), baseV))
			}
			fmt.Fprintln(w)
		}
		row("time", func(c Cell) float64 { return c.Time.Seconds() }, base.Time.Seconds())
		row("messages", func(c Cell) float64 { return float64(c.Stats.Messages.Total()) },
			float64(base.Stats.Messages.Total()))
		row("  useless messages", func(c Cell) float64 { return float64(c.Stats.Messages.Useless) },
			float64(base.Stats.Messages.Total()))
		row("data", func(c Cell) float64 { return float64(c.Stats.TotalDataBytes()) },
			float64(base.Stats.TotalDataBytes()))
		row("  useless data", func(c Cell) float64 { return float64(c.Stats.UselessBytes) },
			float64(base.Stats.TotalDataBytes()))
		row("  piggybacked useless", func(c Cell) float64 { return float64(c.Stats.PiggybackedBytes) },
			float64(base.Stats.TotalDataBytes()))
		fmt.Fprintln(w)
	})
}

// Table1Points is Table 1's grid: per experiment, the sequential cell
// (label "seq") at 1 processor, then the 4 KB cell at the paper's
// processor count, both on base's protocol, network and placement.
func Table1Points(es []Experiment, base Config) []Point {
	seq, par := base, base
	seq.Label, seq.Unit, seq.Dynamic = "seq", 1, false
	par.Label, par.Unit, par.Dynamic = "4K", 1, false
	var points []Point
	for _, e := range es {
		points = append(points, Point{e, seq, 1}, Point{e, par, Procs})
	}
	return points
}

// RenderTable1 prints Table 1 (sequential simulated time and
// 8-processor speedup at the 4 KB unit) from the cells of Table1Points.
func RenderTable1(w io.Writer, points []Point, cells []Cell) {
	fmt.Fprintf(w, "%-8s  %-22s  %12s  %12s  %8s\n",
		"Program", "Input Size", "Seq. Time(s)", "8-proc (s)", "Speedup")
	eachExperiment(points, cells, func(e Experiment, _ []Point, cells []Cell) {
		seq, par := cells[0].Time, cells[1].Time
		fmt.Fprintf(w, "%-8s  %-22s  %12s  %12s  %8.2f\n",
			e.App, e.Dataset, sim.FormatSeconds(seq),
			sim.FormatSeconds(par), seq.Seconds()/par.Seconds())
	})
	fmt.Fprintln(w)
}

// RenderSignature prints the false-sharing signature of each experiment
// under each of its configurations (the paper's Figure 3 runs 4 KB and
// 16 KB through FigurePoints): per concurrent-writer count, the fraction
// of faults, split into useful and useless messages.
func RenderSignature(w io.Writer, points []Point, cells []Cell) {
	eachExperiment(points, cells, func(e Experiment, points []Point, cells []Cell) {
		fmt.Fprintf(w, "%s %s — false sharing signature\n", e.App, e.Dataset)
		for i, p := range points {
			st := cells[i].Stats
			total := 0
			for _, b := range st.Signature {
				total += b.Faults
			}
			fmt.Fprintf(w, "  %-4s", p.Config.Label)
			if total == 0 {
				fmt.Fprintln(w, "  (no remote faults)")
				continue
			}
			var ks []int
			for k := range st.Signature {
				ks = append(ks, k)
			}
			sort.Ints(ks)
			for _, k := range ks {
				b := st.Signature[k]
				fmt.Fprintf(w, "  [%d: %4.1f%% of faults, msgs %d useful/%d useless]",
					k, 100*float64(b.Faults)/float64(total), b.UsefulMsgs, b.UselessMsgs)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	})
}

// RenderMicro prints the §5.1 platform-calibration table: the simulated
// operation costs next to the paper's measured values.
func RenderMicro(w io.Writer) {
	cost := sim.DefaultCostModel()
	rtt := cost.RoundTrip(1, 0)
	lock := 3*cost.MessageLeg + cost.LockService + 32*cost.PerByte
	barrier := 2*cost.MessageLeg + cost.BarrierManager + Procs*cost.RequestService
	diffLo := cost.PageFault + cost.RoundTrip(24, 512) + cost.RequestService
	diffHi := cost.PageFault + cost.RoundTrip(24, 3*4096) + cost.RequestService + 3*cost.DiffPerPage

	fmt.Fprintf(w, "%-28s  %14s  %14s\n", "Operation", "Simulated", "Paper (§5.1)")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "1-byte round trip", us(rtt), "296 µs")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "lock acquisition", us(lock), "374–574 µs")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "8-processor barrier", us(barrier), "861 µs")
	fmt.Fprintf(w, "%-28s  %4.0f–%4.0f µs  %14s\n", "diff fetch", us(diffLo), us(diffHi), "579–1746 µs")
}

func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// --- protocol comparison -----------------------------------------------------

// ProtocolPoints is the homeless-vs-home-based grid: each experiment
// under every registered coherence protocol, in sorted name order, at
// the paper's base configuration (4 KB units).
func ProtocolPoints(es []Experiment, procs int) []Point {
	var points []Point
	for _, e := range es {
		for _, proto := range tmk.ProtocolNames() {
			points = append(points, Point{e, Config{Label: "4K", Unit: 1, Protocol: proto}, procs})
		}
	}
	return points
}

// RenderProtocolComparison prints the protocol comparison of the cells
// of ProtocolPoints: absolute time, messages, and wire bytes per
// protocol, plus each row's ratio to the homeless baseline — the
// fewer-messages/more-bytes trade in one table. The "sw" column counts
// the units the adaptive protocol switched ("-" for the static
// protocols).
func RenderProtocolComparison(w io.Writer, points []Point, cells []Cell) {
	fmt.Fprintf(w, "%-8s  %-22s  %-9s  %9s  %6s  %10s  %6s  %11s  %6s  %4s\n",
		"Program", "Input Size", "Protocol", "Time(s)", "×", "Msgs", "×", "Wire KB", "×", "sw")
	eachExperiment(points, cells, func(e Experiment, points []Point, cells []Cell) {
		var base Cell
		for i, p := range points {
			if p.Config.Protocol == "homeless" {
				base = cells[i]
			}
		}
		ratio := func(v, b float64) string {
			if b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", v/b)
		}
		bt, bm, bb := base.Time.Seconds(), float64(base.Msgs), float64(base.Bytes)
		for i, p := range points {
			c := cells[i]
			sw := "-"
			if p.Config.Protocol == "adaptive" {
				sw = fmt.Sprintf("%d", c.SwitchedUnits)
			}
			fmt.Fprintf(w, "%-8s  %-22s  %-9s  %9.3f  %6s  %10d  %6s  %11.1f  %6s  %4s\n",
				e.App, e.Dataset, p.Config.Protocol,
				c.Time.Seconds(), ratio(c.Time.Seconds(), bt),
				c.Msgs, ratio(float64(c.Msgs), bm),
				float64(c.Bytes)/1024, ratio(float64(c.Bytes), bb), sw)
		}
	})
	fmt.Fprintln(w)
}

// --- network sensitivity -----------------------------------------------------

// NetworkCell is one (protocol, configuration) outcome on one network.
type NetworkCell struct {
	Protocol string
	Config   string
	Cell     Cell
}

// NetworkRow is one interconnect's view of an experiment: the same
// cells re-priced on one network model.
type NetworkRow struct {
	Network string
	Cells   []NetworkCell
}

// NetworkComparison is one experiment across the interconnect family —
// the sensitivity sweep asking how the paper's conclusions move on
// faster or more contended networks.
type NetworkComparison struct {
	App     string
	Dataset string
	Rows    []NetworkRow
}

// networkCellConfigs are the (protocol, configuration) pairs each
// network is evaluated at: the paper's base (homeless, 4 KB), the
// home-based engine (home, 4 KB), the adaptive hybrid (adaptive,
// 4 KB), and dynamic aggregation (homeless, Dyn) — enough to watch the
// trades (homeless vs home vs per-unit hybrid, small units vs
// aggregation) move with the interconnect.
func networkCellConfigs() []Config {
	return []Config{
		{Label: "4K", Unit: 1, Protocol: "homeless"},
		{Label: "4K", Unit: 1, Protocol: "home"},
		{Label: "4K", Unit: 1, Protocol: "adaptive"},
		{Label: "Dyn", Unit: 1, Dynamic: true, Protocol: "homeless"},
	}
}

// RunNetworkComparison runs each experiment under every named network
// model (nil/empty = all registered models, sorted) at the cells of
// networkCellConfigs. For replay-safe applications only the base cells
// execute the engine — the other interconnects' cells are derived by
// re-pricing the captured streams (see derive.go); schedule-sensitive
// applications run every cell for real. SetNetworkDerivation(false)
// forces every cell through the engine.
func RunNetworkComparison(es []Experiment, procs int, networks []string) ([]NetworkComparison, error) {
	if len(networks) == 0 {
		networks = netmodel.Names()
	}
	// Canonical before the first engine run: the derivation compares
	// these names with the ones its captures record.
	networks = slices.Clone(networks)
	for i, n := range networks {
		cfg, err := tmk.Config{Network: n}.Resolve()
		if err != nil {
			return nil, err
		}
		networks[i] = cfg.Network
	}
	// Flatten the grid onto the sweep pool — one derivation task per
	// replay-safe experiment (it yields the whole networks × configs
	// block), per-cell tasks for the rest — then reassemble rows in
	// grid order.
	configs := networkCellConfigs()
	var tasks []sweep.Task
	for _, e := range es {
		if netDerivation.Load() && apps.ReplaySafe(e.App) {
			tasks = append(tasks, sweep.Task{
				Key: fmt.Sprintf("derived|%s|%s|p%d|%s",
					e.App, e.Dataset, procs, strings.Join(networks, ",")),
				Do: func(ctx context.Context) (any, error) {
					return deriveNetworkCells(ctx, e, procs, networks, configs)
				},
			})
			continue
		}
		for _, network := range networks {
			for _, c := range configs {
				c.Network = network
				t, err := cellTask(Point{e, c, procs}, false)
				if err != nil {
					return nil, err
				}
				tasks = append(tasks, t)
			}
		}
	}
	results, err := sweepPool.Run(context.Background(), tasks)
	if err != nil {
		return nil, err
	}
	var out []NetworkComparison
	for _, e := range es {
		// A derivation task yields the experiment's whole block; cell
		// tasks yield one cell each.
		cells, derived := results[0].([]Cell)
		if derived {
			results = results[1:]
		} else {
			cells = make([]Cell, len(networks)*len(configs))
			for i := range cells {
				cells[i] = results[i].(Cell)
			}
			results = results[len(cells):]
		}
		nc := NetworkComparison{App: e.App, Dataset: e.Dataset}
		for ni, network := range networks {
			row := NetworkRow{Network: network}
			for ci, c := range configs {
				row.Cells = append(row.Cells, NetworkCell{
					Protocol: c.Protocol, Config: c.Label, Cell: cells[ni*len(configs)+ci],
				})
			}
			nc.Rows = append(nc.Rows, row)
		}
		out = append(out, nc)
	}
	return out, nil
}

// RenderNetworkComparison prints the network-sensitivity table: per
// experiment and interconnect, the homeless/4 KB baseline's absolute
// time and cumulative queue delay, and the time ratios home÷homeless
// (the protocol trade), adapt÷homeless (the per-unit hybrid; its "sw"
// column counts the units it switched), and Dyn÷4K (the aggregation
// trade). Ratios above 1 mean the alternative loses on that
// interconnect.
func RenderNetworkComparison(w io.Writer, ncs []NetworkComparison) {
	fmt.Fprintf(w, "%-8s  %-22s  %-8s  %9s  %9s  %7s  %7s  %4s  %7s\n",
		"Program", "Input Size", "Network", "Time(s)", "Queue(s)", "home×", "adapt×", "sw", "dyn×")
	for _, nc := range ncs {
		for _, row := range nc.Rows {
			var base, home, adapt, dyn *Cell
			for i := range row.Cells {
				c := &row.Cells[i]
				switch {
				case c.Protocol == "homeless" && c.Config == "4K":
					base = &c.Cell
				case c.Protocol == "home" && c.Config == "4K":
					home = &c.Cell
				case c.Protocol == "adaptive" && c.Config == "4K":
					adapt = &c.Cell
				case c.Config == "Dyn":
					dyn = &c.Cell
				}
			}
			if base == nil {
				continue
			}
			ratio := func(c *Cell) string {
				if c == nil || base.Time == 0 {
					return "-"
				}
				return fmt.Sprintf("%.2f", c.Time.Seconds()/base.Time.Seconds())
			}
			sw := "-"
			if adapt != nil {
				sw = fmt.Sprintf("%d", adapt.SwitchedUnits)
			}
			fmt.Fprintf(w, "%-8s  %-22s  %-8s  %9.3f  %9.3f  %7s  %7s  %4s  %7s\n",
				nc.App, nc.Dataset, row.Network,
				base.Time.Seconds(), base.Queue.Seconds(), ratio(home), ratio(adapt), sw, ratio(dyn))
		}
	}
	fmt.Fprintln(w)
}

// --- home placement ----------------------------------------------------------

// placementProtocols are the protocols the placement axis matters for:
// the home-based engine and the adaptive hybrid (homeless ignores
// homes; its cells are run once per network as the comparison
// baseline).
var placementProtocols = []string{"home", "adaptive"}

// PlacementNetworks are the interconnects the placement comparison is
// evaluated on: the paper's contention-free arithmetic and the
// contended shared medium, the two ends of the range over which home
// placement moves the protocol trade.
func PlacementNetworks() []string { return []string{"ideal", "bus"} }

// PlacementPoints is the home-placement grid: per experiment and named
// network (nil/empty = PlacementNetworks), one homeless baseline cell,
// then every named placement policy (nil/empty = all registered,
// sorted) under the home-based and adaptive protocols, all at the
// paper's base configuration (4 KB units). It runs with
// instrumentation off.
func PlacementPoints(es []Experiment, procs int, placements, networks []string) []Point {
	if len(placements) == 0 {
		placements = tmk.PlacementNames()
	}
	if len(networks) == 0 {
		networks = PlacementNetworks()
	}
	var points []Point
	for _, e := range es {
		for _, network := range networks {
			points = append(points, Point{e, Config{Label: "4K", Unit: 1, Protocol: "homeless", Network: network, Placement: tmk.DefaultPlacement}, procs})
			for _, placement := range placements {
				for _, protocol := range placementProtocols {
					points = append(points, Point{e, Config{Label: "4K", Unit: 1, Protocol: protocol, Network: network, Placement: placement}, procs})
				}
			}
		}
	}
	return points
}

// RenderPlacementComparison prints the placement comparison of the cells
// of PlacementPoints: per experiment, network, and placement policy, the
// homeless baseline's absolute time, the home-based and adaptive times
// as ratios to it (below 1 beats homeless on that interconnect), the
// placement layer's rehome count and transferred kilobytes, and the
// adaptive hybrid's switched-unit count and homeless→home handoff
// kilobytes (which a mobile placement drives to zero by migrating the
// home instead).
func RenderPlacementComparison(w io.Writer, points []Point, cells []Cell) {
	fmt.Fprintf(w, "%-8s  %-22s  %-6s  %-10s  %9s  %6s  %4s  %7s  %6s  %4s  %7s\n",
		"Program", "Input Size", "Net", "Placement", "hless(s)", "home×", "reh", "rehKB", "adapt×", "sw", "handKB")
	eachExperiment(points, cells, func(e Experiment, points []Point, cells []Cell) {
		// Per network, the homeless baseline comes first; per placement,
		// the home cell precedes the adaptive one.
		var base, home Cell
		for i, p := range points {
			switch p.Config.Protocol {
			case "homeless":
				base = cells[i]
			case "home":
				home = cells[i]
			case "adaptive":
				if base.Time == 0 {
					continue
				}
				adapt := cells[i]
				ratio := func(c Cell) string { return fmt.Sprintf("%.2f", c.Time.Seconds()/base.Time.Seconds()) }
				fmt.Fprintf(w, "%-8s  %-22s  %-6s  %-10s  %9.3f  %6s  %4d  %7.1f  %6s  %4d  %7.1f\n",
					e.App, e.Dataset, p.Config.Network, p.Config.Placement,
					base.Time.Seconds(), ratio(home), home.Rehomes, float64(home.RehomeBytes)/1024,
					ratio(adapt), adapt.SwitchedUnits, float64(adapt.HandoffBytes)/1024)
			}
		}
	})
	fmt.Fprintln(w)
}

// --- scaling sweep -----------------------------------------------------------

// ScalingMode is one engine-representation arm of the scaling sweep:
// a (scale, barrier) pairing the curves are produced under.
type ScalingMode struct {
	Name    string // display label, e.g. "sparse/tree"
	Scale   string // tmk.ScaleSparse or tmk.ScaleDense
	Barrier string // barrier fabric registry name
	Radix   int    // tree fan-in (0 = engine default; ignored by central)
}

// ScalingModes returns the sweep's two arms: the dense representation
// with the centralized barrier (the paper-faithful reference the 8-proc
// golden tests pin) and the sparse representation with the radix-4
// combining tree (the configuration built to scale past it).
func ScalingModes() []ScalingMode {
	return []ScalingMode{
		{Name: "dense/central", Scale: tmk.ScaleDense, Barrier: "central"},
		{Name: "sparse/tree", Scale: tmk.ScaleSparse, Barrier: "tree", Radix: tmk.DefaultBarrierRadix},
	}
}

// ScalingPoint is one processor count on one curve: the engine run's
// accounting plus the host wall clock it took to simulate — the sweep's
// headline metric, since the modes are bit-identical at 8 procs and the
// whole point of the sparse arm is simulating large n cheaply.
type ScalingPoint struct {
	Procs int
	Wall  time.Duration
	Cell  Cell
}

// ScalingCurve is one protocol × network × mode curve over the sweep's
// processor counts.
type ScalingCurve struct {
	App      string
	Dataset  string
	Protocol string
	Network  string
	Mode     ScalingMode
	Points   []ScalingPoint
}

// RunScaling runs the experiment across protocols × networks × modes ×
// sizes on the sweep pool and returns one curve per protocol × network
// × mode, in the order given. Every cell is verified against the
// sequential reference; wall clock is measured around the single cell
// run (on a multi-core host, concurrent cells share the machine, so
// treat wall times as comparative, not absolute).
func RunScaling(e Experiment, protocols, networks []string, sizes []int, modes []ScalingMode) ([]ScalingCurve, error) {
	// Tasks go in protocol × mode × size × network order; curves come
	// out protocol × network × mode.
	type timed struct {
		cell Cell
		wall time.Duration
	}
	var tasks []sweep.Task
	for _, proto := range protocols {
		for _, mode := range modes {
			for _, procs := range sizes {
				for _, network := range networks {
					t, err := cellTask(Point{e, Config{
						Label: "4K", Unit: 1, Protocol: proto, Network: network,
						Scale: mode.Scale, Barrier: mode.Barrier, BarrierRadix: mode.Radix,
					}, procs}, false)
					if err != nil {
						return nil, err
					}
					run := t.Do
					t.Do = func(ctx context.Context) (any, error) {
						// The sweep's datum is the per-cell wall clock, and
						// cells run back-to-back in one process: without a
						// collection point between them, heap and scheduler
						// state accumulated by earlier (large, dense) cells
						// inflates later cells' timings by integer factors.
						// Start every timed cell from a settled runtime.
						runtime.GC()
						debug.FreeOSMemory()
						start := time.Now()
						cell, err := run(ctx)
						if err != nil {
							return nil, fmt.Errorf("scaling %s: %w", mode.Name, err)
						}
						return timed{cell: cell.(Cell), wall: time.Since(start)}, nil
					}
					tasks = append(tasks, t)
				}
			}
		}
	}
	results, err := sweepPool.Run(context.Background(), tasks)
	if err != nil {
		return nil, err
	}
	idx := func(pi, ni, mi, si int) int {
		return ((pi*len(modes)+mi)*len(sizes)+si)*len(networks) + ni
	}
	var out []ScalingCurve
	for pi, proto := range protocols {
		for ni, network := range networks {
			for mi, mode := range modes {
				curve := ScalingCurve{
					App: e.App, Dataset: e.Dataset,
					Protocol: proto, Network: network, Mode: mode,
				}
				for si, procs := range sizes {
					r := results[idx(pi, ni, mi, si)].(timed)
					curve.Points = append(curve.Points, ScalingPoint{
						Procs: procs, Wall: r.wall, Cell: r.cell,
					})
				}
				out = append(out, curve)
			}
		}
	}
	return out, nil
}
