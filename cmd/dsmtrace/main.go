// Command dsmtrace analyzes and replays JSONL run traces captured with
// dsmrun/dsmbench -trace (or dsm.WithTrace).
//
// The default mode prints, per captured run: the run's identity and
// recorded totals, a per-processor virtual-time timeline summary, a
// queue-delay histogram per message kind, the hottest consistency units
// by fault count, and a per-barrier-phase traffic breakdown. A run the
// capture cuts before its run_end is marked INCOMPLETE ("complete":
// false under -json); events of a run whose run_start the capture lacks
// (a flight-recorder window opening mid-run) are counted on stderr.
//
// Replay mode (-replay) decodes each captured run (trace.ReadRuns) and
// re-prices it through a network model with MemSink.Derive, without
// re-executing the application:
//
//	dsmtrace trace.jsonl                      # analyze
//	dsmtrace -top 20 trace.jsonl              # more hot units
//	dsmtrace -json trace.jsonl                # machine-readable summary
//	dsmtrace -replay trace.jsonl              # re-price through the capture's own model
//	dsmtrace -replay -network bus trace.jsonl # derive the run on another interconnect
//	dsmtrace -replay -network all trace.jsonl # every registered model, side by side
//
// Each row is Derive's time and totals. The capture's own model must
// reproduce the recorded run_end bit-identically — dsmtrace exits
// non-zero if it does not, or if a derivation refuses — so any
// `dsmtrace -replay capture.jsonl` doubles as an integrity check of the
// trace. Rows of a schedule-sensitive app (not apps.ReplaySafe) say
// "one schedule": the stream is one schedule's, not the app's.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	replay := flag.Bool("replay", false, "re-price the capture through a network model instead of summarizing")
	network := flag.String("network", "", "replay network model (empty = each run's own model, \"all\" = every registered model in one pass; see dsmrun -list)")
	topN := flag.Int("top", 10, "number of hottest units to list")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dsmtrace [-replay] [-network MODEL] [-top N] [-json] TRACE.jsonl ('-' for stdin)")
		os.Exit(2)
	}
	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}

	if *replay {
		networks := []string{*network} // "" is each run's own model
		if *network == "all" {
			networks = netmodel.Names()
		}
		runReplay(in, networks, *jsonOut)
		return
	}
	runSummary(in, *topN, *jsonOut)
}

// --- replay ---------------------------------------------------------------

// replayRun is one captured run, numbered in file order, and its
// derivations onto the requested networks.
type replayRun struct {
	Run      int           `json:"run"`
	Meta     trace.RunMeta `json:"meta"`
	Time     sim.Duration  `json:"time"`
	Recorded trace.Totals  `json:"recorded"`
	Derived  []replayRow   `json:"derived"`
}

type replayRow struct {
	*trace.Derived
	Verdict string `json:"verdict"`
}

// runReplay derives every captured run onto the given networks and
// prints a table per run: the recorded row, then one row per network.
// A refused derivation or an own-model row that differs from the
// recorded one means the trace does not reproduce the run it claims to
// record, and dsmtrace exits 1.
func runReplay(in io.Reader, networks []string, jsonOut bool) {
	sinks, err := trace.ReadRuns(in)
	if err != nil {
		fail(err)
	}
	runs := make([]replayRun, len(sinks))
	mismatch := false
	for i, ms := range sinks {
		r := &runs[i]
		r.Run, r.Meta = i+1, ms.Meta()
		r.Time, r.Recorded = ms.Recorded()
		for _, name := range networks {
			d, err := ms.Derive(cmp.Or(name, r.Meta.Network))
			if err != nil {
				fail(fmt.Errorf("run %d (%s): %w", r.Run, runName(r.Meta.App, r.Meta.Dataset), err))
			}
			row := replayRow{d, "re-priced"}
			switch {
			case d.Network == r.Meta.Network && d.Time == r.Time && d.Totals == r.Recorded:
				row.Verdict = "bit-identical"
			case d.Network == r.Meta.Network:
				row.Verdict, mismatch = "MISMATCH", true
			case !apps.ReplaySafe(r.Meta.App):
				row.Verdict = "one schedule"
			}
			r.Derived = append(r.Derived, row)
		}
	}
	if jsonOut {
		printJSON(runs)
	} else {
		for _, r := range runs {
			fmt.Printf("=== run %d: %s  [%s, captured on %s, %d procs] ===\n",
				r.Run, runName(r.Meta.App, r.Meta.Dataset), r.Meta.Protocol, r.Meta.Network, r.Meta.Procs)
			fmt.Printf("  %-10s %10s %12s %12s %12s  %s\n", "network", "msgs", "bytes", "time(s)", "queue(s)", "verdict")
			fmt.Printf("  %-10s %10d %12d %12.6f %12.6f\n",
				"(recorded)", r.Recorded.Msgs, r.Recorded.Bytes, r.Time.Seconds(), r.Recorded.Queue.Seconds())
			for _, d := range r.Derived {
				fmt.Printf("  %-10s %10d %12d %12.6f %12.6f  %s\n",
					d.Network, d.Msgs, d.Bytes, d.Time.Seconds(), d.Queue.Seconds(), d.Verdict)
			}
			fmt.Println()
		}
	}
	if mismatch {
		fmt.Fprintln(os.Stderr, "dsmtrace: a run derived onto its own model diverged from its recorded totals")
		os.Exit(1)
	}
}

// --- summary --------------------------------------------------------------

// queueBuckets are the queue-delay histogram's upper bounds (the last
// bucket is open-ended).
var queueBuckets = []sim.Duration{
	0,
	10_000,        // 10 µs
	100_000,       // 100 µs
	1_000_000,     // 1 ms
	10_000_000,    // 10 ms
	100_000_000,   // 100 ms
	1_000_000_000, // 1 s
}

func bucketLabel(i int) string {
	names := []string{"0", "≤10µs", "≤100µs", "≤1ms", "≤10ms", "≤100ms", "≤1s", ">1s"}
	return names[i]
}

func bucketOf(q sim.Duration) int {
	for i, ub := range queueBuckets {
		if q <= ub {
			return i
		}
	}
	return len(queueBuckets)
}

type procStats struct {
	Proc     int     `json:"proc"`
	Sent     int     `json:"messages_sent"`
	Faults   int     `json:"faults"`
	Barriers int     `json:"barriers"`
	Locks    int     `json:"lock_acquires"`
	LastSec  float64 `json:"last_event_seconds"`
	last     sim.Duration
}

type kindStats struct {
	Kind    string `json:"kind"`
	Msgs    int64  `json:"messages"`
	Bytes   int64  `json:"bytes"`
	Queue   sim.Duration
	Buckets []int64 `json:"queue_buckets"`
	QueueS  float64 `json:"queue_seconds"`
}

type unitStats struct {
	Unit   int `json:"unit"`
	Faults int `json:"faults"`
}

type phaseStats struct {
	Phase  int     `json:"phase"`
	Msgs   int64   `json:"messages"`
	Bytes  int64   `json:"bytes"`
	QueueS float64 `json:"queue_seconds"`
	Faults int     `json:"faults"`
	EndS   float64 `json:"end_seconds"`
	end    sim.Duration
	queue  sim.Duration
}

type runSummaryJSON struct {
	Run       int64         `json:"run"`
	App       string        `json:"app,omitempty"`
	Dataset   string        `json:"dataset,omitempty"`
	Protocol  string        `json:"protocol"`
	Network   string        `json:"network"`
	Placement string        `json:"placement"`
	Procs     int           `json:"procs"`
	Complete  bool          `json:"complete"` // the capture holds the run's run_end
	TimeS     float64       `json:"time_seconds"`
	Msgs      int64         `json:"messages"`
	Bytes     int64         `json:"bytes"`
	QueueS    float64       `json:"queue_seconds"`
	Switches  int           `json:"protocol_switches"`
	Rehomes   int           `json:"rehomes"`
	ProcTimes []*procStats  `json:"proc_timeline"`
	Kinds     []*kindStats  `json:"kinds"`
	TopUnits  []unitStats   `json:"top_units"`
	Phases    []*phaseStats `json:"phases"`
}

// runAcc accumulates one run's summary while streaming its events.
type runAcc struct {
	out        *runSummaryJSON
	procs      map[int]*procStats
	kinds      map[string]*kindStats
	unitFaults map[int]int
	// message/fault events buffered for phase binning: barriers release
	// in episode order, so the phase boundaries (max barrier_leave time
	// per episode) are only known at run end.
	msgAt   []sim.Duration
	msgB    []int64
	msgQ    []sim.Duration
	faultAt []sim.Duration
	phases  map[int]*phaseStats
}

func newRunAcc(ev *trace.Event) *runAcc {
	return &runAcc{
		out: &runSummaryJSON{
			Run: ev.R, App: ev.App, Dataset: ev.Dataset,
			Protocol: ev.Protocol, Network: ev.Network, Placement: ev.Placement,
			Procs: ev.Procs,
		},
		procs:      make(map[int]*procStats),
		kinds:      make(map[string]*kindStats),
		unitFaults: make(map[int]int),
		phases:     make(map[int]*phaseStats),
	}
}

func (a *runAcc) proc(p int) *procStats {
	ps := a.procs[p]
	if ps == nil {
		ps = &procStats{Proc: p}
		a.procs[p] = ps
	}
	return ps
}

func (a *runAcc) kind(k string) *kindStats {
	ks := a.kinds[k]
	if ks == nil {
		ks = &kindStats{Kind: k, Buckets: make([]int64, len(queueBuckets)+1)}
		a.kinds[k] = ks
	}
	return ks
}

func (a *runAcc) seen(p int, at sim.Duration) {
	ps := a.proc(p)
	if at > ps.last {
		ps.last = at
	}
}

func (a *runAcc) message(kind string, src int, bytes int64, at, q sim.Duration) {
	ks := a.kind(kind)
	ks.Msgs++
	ks.Bytes += bytes
	ks.Queue += q
	ks.Buckets[bucketOf(q)]++
	a.proc(src).Sent++
	a.seen(src, at)
	a.msgAt = append(a.msgAt, at)
	a.msgB = append(a.msgB, bytes)
	a.msgQ = append(a.msgQ, q)
}

func (a *runAcc) event(ev *trace.Event) {
	switch ev.E {
	case trace.EvLeg, trace.EvControl:
		a.message(ev.K, ev.S, int64(ev.B), ev.At, ev.Q)
	case trace.EvExchange:
		a.message(ev.K, ev.S, int64(ev.B), ev.At, ev.Q)
		a.message(ev.RK, ev.D, int64(ev.RB), ev.At, ev.RQ)
	case trace.EvBarrierEnter:
		a.seen(ev.P, ev.At)
	case trace.EvBarrierLeave:
		a.proc(ev.P).Barriers++
		a.seen(ev.P, ev.At)
		ph := a.phases[ev.N]
		if ph == nil {
			ph = &phaseStats{Phase: ev.N}
			a.phases[ev.N] = ph
		}
		if ev.At > ph.end {
			ph.end = ev.At
		}
	case trace.EvLockAcquire:
		a.proc(ev.P).Locks++
		a.seen(ev.P, ev.At)
	case trace.EvLockRelease:
		a.seen(ev.P, ev.At)
	case trace.EvFaultBegin:
		a.proc(ev.P).Faults++
		a.unitFaults[ev.U]++
		a.seen(ev.P, ev.At)
		a.faultAt = append(a.faultAt, ev.At)
	case trace.EvFaultEnd:
		a.seen(ev.P, ev.At)
	case trace.EvSwitch:
		a.out.Switches++
	case trace.EvRehome:
		a.out.Rehomes++
	case trace.EvRunEnd:
		a.out.Complete = true
		a.out.TimeS = ev.Time.Seconds()
		a.out.Msgs = ev.Msgs
		a.out.Bytes = ev.Bytes
		a.out.QueueS = ev.Queue.Seconds()
	}
}

// finalize sorts the accumulated maps into the report and bins the
// buffered message/fault events into barrier phases. Phase k spans
// (end of episode k-1, end of episode k]; traffic after the last
// barrier (or in a barrier-free run) lands in a trailing phase 0 row
// reported as "after".
func (a *runAcc) finalize(topN int) {
	for _, ps := range a.procs {
		ps.LastSec = ps.last.Seconds()
		a.out.ProcTimes = append(a.out.ProcTimes, ps)
	}
	sort.Slice(a.out.ProcTimes, func(i, j int) bool { return a.out.ProcTimes[i].Proc < a.out.ProcTimes[j].Proc })

	for _, ks := range a.kinds {
		ks.QueueS = ks.Queue.Seconds()
		a.out.Kinds = append(a.out.Kinds, ks)
	}
	sort.Slice(a.out.Kinds, func(i, j int) bool { return a.out.Kinds[i].Msgs > a.out.Kinds[j].Msgs })

	for u, n := range a.unitFaults {
		a.out.TopUnits = append(a.out.TopUnits, unitStats{Unit: u, Faults: n})
	}
	sort.Slice(a.out.TopUnits, func(i, j int) bool {
		if a.out.TopUnits[i].Faults != a.out.TopUnits[j].Faults {
			return a.out.TopUnits[i].Faults > a.out.TopUnits[j].Faults
		}
		return a.out.TopUnits[i].Unit < a.out.TopUnits[j].Unit
	})
	if len(a.out.TopUnits) > topN {
		a.out.TopUnits = a.out.TopUnits[:topN]
	}

	var phases []*phaseStats
	for _, ph := range a.phases {
		phases = append(phases, ph)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Phase < phases[j].Phase })
	tail := &phaseStats{}
	phaseFor := func(at sim.Duration) *phaseStats {
		for _, ph := range phases {
			if at <= ph.end {
				return ph
			}
		}
		return tail
	}
	for i, at := range a.msgAt {
		ph := phaseFor(at)
		ph.Msgs++
		ph.Bytes += a.msgB[i]
		ph.queue += a.msgQ[i]
	}
	for _, at := range a.faultAt {
		phaseFor(at).Faults++
	}
	if tail.Msgs > 0 || tail.Faults > 0 {
		phases = append(phases, tail)
	}
	for _, ph := range phases {
		ph.QueueS = ph.queue.Seconds()
		ph.EndS = ph.end.Seconds()
	}
	a.out.Phases = phases
}

func runSummary(in io.Reader, topN int, jsonOut bool) {
	r, err := trace.NewReader(in)
	if err != nil {
		fail(err)
	}
	var order []*runAcc
	runs := make(map[int64]*runAcc)
	orphans := 0 // events of a run whose run_start is not in the capture
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
		}
		if ev.E == trace.EvRunStart {
			acc := newRunAcc(ev)
			runs[ev.R] = acc
			order = append(order, acc)
			continue
		}
		if acc := runs[ev.R]; acc != nil {
			acc.event(ev)
		} else {
			orphans++
		}
	}
	if orphans > 0 {
		// A flight-recorder dump is a window: it may open mid-run.
		fmt.Fprintf(os.Stderr, "dsmtrace: %d events named a run with no run_start in the capture; they are not summarized\n", orphans)
	}
	var docs []*runSummaryJSON
	for _, acc := range order {
		acc.finalize(topN)
		docs = append(docs, acc.out)
	}
	if jsonOut {
		printJSON(docs)
		return
	}
	for _, doc := range docs {
		render(doc)
	}
}

// runName labels a run by its workload.
func runName(app, dataset string) string {
	switch {
	case dataset != "":
		return app + "/" + dataset
	case app != "":
		return app
	}
	return "(unlabeled)"
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func render(d *runSummaryJSON) {
	incomplete := ""
	if !d.Complete {
		incomplete = "  INCOMPLETE"
	}
	fmt.Printf("=== run %d: %s  [%s, %s net, %s homes, %d procs]%s ===\n",
		d.Run, runName(d.App, d.Dataset), d.Protocol, d.Network, d.Placement, d.Procs, incomplete)
	if d.Complete {
		fmt.Printf("  simulated time %.6f s   messages %d   bytes %d   queue delay %.6f s",
			d.TimeS, d.Msgs, d.Bytes, d.QueueS)
	} else {
		fmt.Print("  no run_end: the capture stops before the run does, so its totals are unknown")
	}
	if d.Switches > 0 || d.Rehomes > 0 {
		fmt.Printf("   switches %d   rehomes %d", d.Switches, d.Rehomes)
	}
	fmt.Println()

	renderTimeline(d)

	fmt.Println("\n  queue delay by message kind:")
	header := make([]string, 0, len(queueBuckets)+1)
	for i := 0; i <= len(queueBuckets); i++ {
		header = append(header, fmt.Sprintf("%8s", bucketLabel(i)))
	}
	fmt.Printf("    %-15s %8s %12s %12s  %s\n", "kind", "msgs", "bytes", "queue(s)", strings.Join(header, ""))
	for _, ks := range d.Kinds {
		cells := make([]string, 0, len(ks.Buckets))
		for _, n := range ks.Buckets {
			cells = append(cells, fmt.Sprintf("%8d", n))
		}
		fmt.Printf("    %-15s %8d %12d %12.6f  %s\n", ks.Kind, ks.Msgs, ks.Bytes, ks.QueueS, strings.Join(cells, ""))
	}

	if len(d.TopUnits) > 0 {
		fmt.Println("\n  hottest units by faults:")
		fmt.Printf("    %-6s %8s\n", "unit", "faults")
		for _, u := range d.TopUnits {
			fmt.Printf("    %-6d %8d\n", u.Unit, u.Faults)
		}
	}

	if len(d.Phases) > 0 {
		fmt.Println("\n  per-barrier-phase breakdown:")
		fmt.Printf("    %-6s %10s %12s %12s %8s %12s\n", "phase", "msgs", "bytes", "queue(s)", "faults", "end(s)")
		for _, ph := range d.Phases {
			label := fmt.Sprintf("%d", ph.Phase)
			end := fmt.Sprintf("%.6f", ph.EndS)
			if ph.Phase == 0 {
				label, end = "after", "-"
			}
			fmt.Printf("    %-6s %10d %12d %12.6f %8d %12s\n",
				label, ph.Msgs, ph.Bytes, ph.QueueS, ph.Faults, end)
		}
	}
	fmt.Println()
}

// maxTimelineLanes caps the per-processor timeline's rendered rows. A
// 1024-processor capture would otherwise print a thousand lines of
// timeline before anything else; above the cap, consecutive processors
// are aggregated into at most this many lanes (sums per lane, latest
// event time across the lane). The -json output always keeps full
// per-processor detail — aggregation is purely a text-rendering
// concern.
const maxTimelineLanes = 32

func renderTimeline(d *runSummaryJSON) {
	fmt.Println("\n  per-processor timeline:")
	if len(d.ProcTimes) <= maxTimelineLanes {
		fmt.Printf("    %-5s %10s %8s %9s %7s %14s\n", "proc", "sent", "faults", "barriers", "locks", "last event(s)")
		for _, ps := range d.ProcTimes {
			fmt.Printf("    %-5d %10d %8d %9d %7d %14.6f\n",
				ps.Proc, ps.Sent, ps.Faults, ps.Barriers, ps.Locks, ps.LastSec)
		}
		return
	}
	// Lane width from the run's processor count, so lanes cover the id
	// space evenly even when some processors recorded no events.
	n := d.Procs
	if last := d.ProcTimes[len(d.ProcTimes)-1].Proc + 1; last > n {
		n = last
	}
	width := (n + maxTimelineLanes - 1) / maxTimelineLanes
	type lane struct {
		lo, hi, procs              int
		sent, faults, barrs, locks int
		last                       float64
	}
	lanes := make(map[int]*lane)
	var order []int
	for _, ps := range d.ProcTimes {
		i := ps.Proc / width
		ln := lanes[i]
		if ln == nil {
			hi := (i+1)*width - 1
			if hi > n-1 {
				hi = n - 1
			}
			ln = &lane{lo: i * width, hi: hi}
			lanes[i] = ln
			order = append(order, i)
		}
		ln.procs++
		ln.sent += ps.Sent
		ln.faults += ps.Faults
		ln.barrs += ps.Barriers
		ln.locks += ps.Locks
		if ps.LastSec > ln.last {
			ln.last = ps.LastSec
		}
	}
	sort.Ints(order)
	fmt.Printf("    (%d processors aggregated into %d lanes of %d; -json keeps per-proc detail)\n",
		len(d.ProcTimes), len(order), width)
	fmt.Printf("    %-11s %6s %10s %8s %9s %7s %14s\n",
		"procs", "active", "sent", "faults", "barriers", "locks", "last event(s)")
	for _, i := range order {
		ln := lanes[i]
		fmt.Printf("    %-11s %6d %10d %8d %9d %7d %14.6f\n",
			fmt.Sprintf("%d-%d", ln.lo, ln.hi), ln.procs, ln.sent, ln.faults, ln.barrs, ln.locks, ln.last)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmtrace:", err)
	os.Exit(1)
}
