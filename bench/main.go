// Command bench is the repository's benchmark: four workloads over the
// DSM simulator, timed in rounds, with exact-count checks, per-layer
// probes and a traced pass. See README.md in this directory for what
// every metric means and BENCHMARK.json at the repository root for the
// contract it is run under.
//
//	go run ./bench                        every workload, every end-to-end metric
//	go run ./bench -workload net-sweep    one workload
//	go run ./bench -trace 1               the traced pass: per-layer metrics
//	go run ./bench -aa                    two alternating sets of runs, compared
//
// The process that is started is only a driver. Each workload runs in a
// child process of its own with GOMAXPROCS fixed, because set-up time
// and peak memory only mean something per process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	aa       bool
	outDir   string
	child    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all): paper-grid, net-sweep, scale-256, serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	// The contract this runs under passes -seconds with BENCHMARK.json's
	// run_seconds. It scales the fixed round counts and never reads a clock.
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of a run: every workload's round count is scaled by seconds/"+strconv.Itoa(runSeconds))
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: small work lists, one round, one probe batch")
	flag.BoolVar(&o.aa, "aa", false, "run every workload twice in alternation and compare the two sets of medians")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the traced pass writes its spans to")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its report")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.seconds < 1 || o.seconds > 60 { // the contract's range; serve-mix's family universe is sized for it
		fmt.Fprintln(os.Stderr, "bench: -seconds must be between 1 and 60")
		os.Exit(2)
	}

	var err error
	switch {
	case o.child:
		err = runChild(o)
	case o.aa:
		err = runAA(o)
	default:
		err = runDriver(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// --- child -------------------------------------------------------------------

// childReport is what a child process hands back to the driver.
type childReport struct {
	Workload   string             `json:"workload"`
	Rounds     []roundSample      `json:"rounds,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Notes      []string           `json:"notes,omitempty"`
	SimDigest  string             `json:"sim_digest"`
	Metrics    map[string]float64 `json:"metrics"`
	Detail     map[string]string  `json:"detail,omitempty"` // "q1/q3 n" strings for the log
	SpinBefore float64            `json:"host_spin_ms_before"`
	SpinAfter  float64            `json:"host_spin_ms_after"`
	GoMaxProcs int                `json:"gomaxprocs"`
}

// spawnEnv carries the driver's clock reading at spawn time, so that
// set-up time can start at process start rather than at main.
const spawnEnv = "BENCH_SPAWNED_UNIX_NS"

func runChild(o options) error {
	rep, err := childRun(o, time.Now())
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// childRun sets one workload up in this process and runs the end-to-end
// or the traced pass over it. started is when this process began, as far
// as it can tell by itself. Set-up ends when the first timed round could
// start: inputs built, server started and filled, warm-up rounds run.
func childRun(o options, started time.Time) (*childReport, error) {
	stolenAtStart := stolenTime()
	if v, err := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64); err == nil {
		started = time.Unix(0, v)
	}
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	// A run is a fixed number of rounds; -quick is one of each.
	warmups, rounds := warmupRounds, max(def.rounds*o.seconds/runSeconds, 2)
	if o.quick {
		warmups, rounds = 1, 1
	}
	w := def.make(o.quick)
	defer w.close()
	if err := w.setup(o.seed); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	if err := warmUp(w, warmups); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	// Set-up is timed like a round: without the time stolen from the machine.
	setup := roundSample{WallNS: int64(time.Since(started)), StealNS: int64(stolenTime() - stolenAtStart)}
	rep := &childReport{
		Workload:   o.workload,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics:    map[string]float64{"setup_s": setup.wall()},
		Detail: map[string]string{"setup_s": fmt.Sprintf("process start to the first timed round, %d warm-up rounds; with the stolen time %.3f",
			warmups, float64(setup.WallNS)/1e9)},
	}
	rep.SpinBefore = spinMS()
	if o.trace == 1 {
		// Half as many rounds, in pairs: one recorded, one not.
		err = tracedPass(w, def.on, max(rounds/2, 2), o, rep)
	} else {
		endToEndPass(w, rounds, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.SpinAfter = spinMS()
	rep.SimDigest = w.digest()
	return rep, nil
}

// endToEndPass times the workload with span recording off and fills in
// the end-to-end metrics.
func endToEndPass(w workload, rounds int, rep *childReport) {
	m := measure(w, rounds, nil)
	peak := peakRSSMB() // before verify: its checks are not the workload
	v := w.verify()
	rep.Rounds = m.Rounds
	rep.Attempted = m.Attempted + v.attempted
	rep.Failed = m.Failed + v.failed
	rep.Notes = append(m.Notes, v.notes...)

	units := float64(w.units())
	wall, cpu, stolen := roundSeries(m.Rounds)
	q1, q2, q3 := quartiles(wall)
	rep.Metrics["cells_per_s"] = units / q2
	rawWall := make([]float64, len(m.Rounds))
	for i, r := range m.Rounds {
		rawWall[i] = float64(r.WallNS) / 1e9
	}
	rep.Detail["cells_per_s"] = fmt.Sprintf("round wall s: q1 %.4f median %.4f q3 %.4f, n=%d rounds of %d; %.1f%% of the cpu time was stolen, with it the median is %.4f",
		q1, q2, q3, len(wall), w.units(), 100*stolen, median(rawWall))
	c1, c2, c3 := quartiles(cpu)
	rep.Metrics["cpu_ms_per_cell"] = c2 * 1e3 / units
	rep.Detail["cpu_ms_per_cell"] = fmt.Sprintf("round cpu s: q1 %.4f median %.4f q3 %.4f, n=%d", c1, c2, c3, len(cpu))
	rep.Metrics["alloc_mb_per_cell"] = float64(m.AllocBytes) / (1 << 20) / float64(m.Units)
	rep.Metrics["mallocs_per_cell"] = float64(m.Mallocs) / float64(m.Units)
	rep.Detail["alloc_mb_per_cell"] = fmt.Sprintf("over %d cells", m.Units)
	rep.Detail["mallocs_per_cell"] = rep.Detail["alloc_mb_per_cell"]
	rep.Metrics["peak_rss_mb"] = peak
	if sm, ok := w.(*serveMix); ok {
		sm.latencyMetrics(rep) // printed on # lines: only serve-mix has requests
		sm.mixMetrics(rep)
	}
}

// roundSeries splits the samples into wall and CPU seconds, and adds up
// what share of the CPU time billed to the rounds was stolen.
func roundSeries(rs []roundSample) (wall, cpu []float64, stolen float64) {
	var steal, billed int64
	for _, r := range rs {
		wall = append(wall, r.wall())
		cpu = append(cpu, r.cpu())
		steal += r.StealNS
		billed += r.CPUNS
	}
	return wall, cpu, float64(steal) / float64(billed)
}

// --- driver ------------------------------------------------------------------

// childProcs is the GOMAXPROCS every child runs with: the harness sizes
// its sweep pool when the package is initialised, so it has to be in
// the environment before the child starts.
func childProcs() int { return min(runtime.NumCPU(), 4) }

// spawn runs one child to completion and decodes its report. A driver
// that is told to stop kills the child and waits for it before it goes.
func spawn(o options) (*childReport, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS="+strconv.Itoa(childProcs()),
		spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	out, err := cmd.Output() // Output waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", o.workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s child: unreadable report: %w", o.workload, err)
	}
	return &rep, nil
}

// result is the last line of standard output: the contract's object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runDriver(o options) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	printEnvironment()
	ok := true
	for _, name := range names {
		wo := o
		wo.workload = name
		rep, err := spawn(wo)
		if err != nil {
			return err
		}
		res := report(rep, o.trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		return fmt.Errorf("a workload produced wrong output")
	}
	return nil
}

func printEnvironment() {
	fmt.Printf("# environment: nproc=%d child GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), childProcs(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// report prints one workload's metrics by name with their units and
// returns the contract object.
func report(rep *childReport, traced bool) result {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	fmt.Printf("# workload %s: sim_digest=%s attempted=%d failed=%d rounds=%d host_spin_ms=%.1f->%.1f GOMAXPROCS=%d\n",
		rep.Workload, rep.SimDigest, rep.Attempted, rep.Failed, len(rep.Rounds), rep.SpinBefore, rep.SpinAfter, rep.GoMaxProcs)
	for _, n := range rep.Notes {
		fmt.Printf("#   failure: %s\n", n)
	}
	res := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			fmt.Printf("#   %s/%s: not produced\n", rep.Workload, d.Name)
			res.Correct = false
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%s/%s = %.6g %s", rep.Workload, d.Name, v, d.Unit)
		if det := rep.Detail[d.Name]; det != "" {
			fmt.Printf("   (%s)", det)
		}
		fmt.Println()
	}
	// Whatever else the child measured is printed for the reader and
	// left out of the contract object.
	var extra []string
	for name := range rep.Metrics {
		if _, listed := res.Metrics[name]; !listed {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("#   %s/%s = %.6g   %s\n", rep.Workload, name, rep.Metrics[name], rep.Detail[name])
	}
	return res
}
