// Command dsmrun executes any application × dataset × configuration ×
// trials combination from the workload registry and prints the full
// communication breakdown — the per-cell view behind dsmbench's
// figures. Every run is verified against the application's sequential
// reference.
//
// The flags become an expsvc.Spec (with collect set) and run through
// the path dsmd serves: expsvc.Resolve, (*Resolved).Run, and
// (*Resolved).Report, which -json prints indented. So dsmrun enforces
// the service's bounds (-procs ≤ 1024, -trials ≤ 64, -unit ≤ 64) and
// names a bad value by its spec field ("spec.unit_pages: …").
//
// Usage:
//
//	dsmrun -app MGS -unit 2                       # MGS at the 8 KB unit
//	dsmrun -app Jacobi -dynamic                   # dynamic aggregation
//	dsmrun -app jacobi -dataset 1024 -unit 2 -trials 3 -json
//	dsmrun -app jacobi -protocol home             # home-based LRC engine
//	dsmrun -app jacobi -protocol adaptive         # per-unit homeless/home hybrid
//	dsmrun -app jacobi -network bus               # contended shared-medium Ethernet
//	dsmrun -app jacobi -protocol home -placement firsttouch   # first-writer homes
//	dsmrun -app jacobi -protocol home -placement migrate      # JIAJIA-style home migration
//	dsmrun -list                                  # registered workloads + protocols + networks + placements
//	dsmrun -list -json                            # the same registries, machine-readable (= GET /v1/registry on dsmd)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/expsvc"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

func main() {
	app := flag.String("app", "", "application name (see -list)")
	dataset := flag.String("dataset", "", "dataset: exact name, substring, or small/medium/large (empty = app default)")
	unit := flag.Int("unit", 1, "consistency unit in 4 KB pages (paper: 1, 2, 4)")
	dynamic := flag.Bool("dynamic", false, "use dynamic aggregation")
	protocol := flag.String("protocol", tmk.DefaultProtocol,
		"coherence protocol: "+strings.Join(tmk.ProtocolNames(), " or "))
	network := flag.String("network", netmodel.Default,
		"interconnect timing model: "+strings.Join(netmodel.Names(), ", "))
	placement := flag.String("placement", tmk.DefaultPlacement,
		"home-placement policy: "+strings.Join(tmk.PlacementNames(), ", "))
	scale := flag.String("scale", tmk.DefaultScale,
		"engine scaling representation: "+strings.Join(tmk.ScaleNames(), " or "))
	barrier := flag.String("barrier", tmk.DefaultBarrier,
		"barrier fabric: "+strings.Join(tmk.BarrierNames(), " or "))
	barrierRadix := flag.Int("barrier-radix", tmk.DefaultBarrierRadix,
		"tree barrier fan-in (children per node); ignored by central")
	procs := flag.Int("procs", harness.Procs, "number of processors")
	trials := flag.Int("trials", 1, "independent trials on one reused system")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	traceOut := flag.String("trace", "", "capture a JSONL run trace to FILE (analyze/replay with dsmtrace)")
	list := flag.Bool("list", false, "list registered application/dataset pairs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to FILE at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	if *list {
		// The same document the service's GET /v1/registry serves — one
		// shared helper, so the two surfaces cannot drift.
		reg := expsvc.Registry()
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reg); err != nil {
				fail(err)
			}
			return
		}
		for _, e := range apps.Entries() {
			paper := ""
			if e.Paper != "" {
				paper = fmt.Sprintf(" (paper: %s)", e.Paper)
			}
			fmt.Printf("%-8s  %-22s%s\n", e.App, e.Dataset, paper)
		}
		fmt.Printf("\nprotocols:  %s (default %s)\n",
			strings.Join(reg.Protocols, ", "), reg.DefaultProtocol)
		fmt.Printf("networks:   %s (default %s)\n",
			strings.Join(reg.Networks, ", "), reg.DefaultNetwork)
		fmt.Printf("placements: %s (default %s)\n",
			strings.Join(reg.Placements, ", "), reg.DefaultPlacement)
		fmt.Printf("barriers:   %s (default %s)\n",
			strings.Join(reg.Barriers, ", "), reg.DefaultBarrier)
		fmt.Printf("scales:     %s (default %s)\n",
			strings.Join(reg.Scales, ", "), reg.DefaultScale)
		return
	}
	if *app == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Zero means "the default" in a spec, so dsmrun rejects it here;
	// Resolve names every other bad value by its spec field.
	if *procs == 0 {
		fail(&expsvc.FieldError{Field: "procs", Msg: "must be positive (got 0)"})
	}
	if *unit == 0 {
		fail(&expsvc.FieldError{Field: "unit_pages", Msg: "must be positive (got 0)"})
	}
	if *trials == 0 {
		fail(&expsvc.FieldError{Field: "trials", Msg: "must be positive (got 0)"})
	}
	// Resolved before the trace file exists: a bad name leaves no file.
	res, err := expsvc.Resolve(expsvc.Spec{
		App: *app, Dataset: *dataset, UnitPages: *unit, Dynamic: *dynamic,
		Protocol: *protocol, Network: *network, Placement: *placement,
		Scale: *scale, Barrier: *barrier, BarrierRadix: *barrierRadix,
		Procs: *procs, Trials: *trials, Collect: true,
	})
	if err != nil {
		fail(err)
	}
	e := res.Entry
	var sink trace.Sink
	var tw *trace.Writer
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		traceFile = f
		traceBuf = bufio.NewWriter(f)
		tw = trace.NewWriter(traceBuf)
		sink = tw.Sink(e.App, e.Dataset)
	}
	// Ctrl-C (or SIGTERM) stops the remaining trials instead of running
	// the cell to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ts, err := res.Run(ctx, sink)
	if err != nil {
		fail(err)
	}
	if tw != nil {
		// A trace that could not be fully written must fail the run, not
		// pass silently as a truncated file that replays to wrong totals.
		if err := tw.Close(); err != nil {
			fail(err)
		}
		if err := traceBuf.Flush(); err != nil {
			fail(err)
		}
		if err := traceFile.Close(); err != nil {
			fail(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report(ts)); err != nil {
			fail(err)
		}
		return
	}

	cfg := res.EngineConfig()
	label := harness.LabelFor(*unit, *dynamic)
	last := ts.Trials[len(ts.Trials)-1]
	st := last.Stats
	fmt.Printf("%s %s  [%s, %s, %s net, %s homes, %d procs, %d trial(s)]  (verified against sequential reference)\n",
		e.App, e.Dataset, label, cfg.Protocol, cfg.Network, cfg.Placement, *procs, len(ts.Trials))
	fmt.Printf("  simulated time        %.3f s (min %.3f, mean %.3f, max %.3f)\n",
		last.Time.Seconds(), ts.MinTime.Seconds(), ts.MeanTime.Seconds(), ts.MaxTime.Seconds())
	fmt.Printf("  network queue delay   %.3f s cumulative\n", last.QueueDelay.Seconds())
	fmt.Printf("  messages              %d (%d useful, %d useless)\n",
		st.Messages.Total(), st.Messages.Useful, st.Messages.Useless)
	fmt.Printf("  diff data bytes       %d (%d useful, %d useless, %d piggybacked useless)\n",
		st.TotalDataBytes(), st.UsefulBytes, st.UselessBytes, st.PiggybackedBytes)
	fmt.Printf("  wire bytes            %d\n", st.TotalWireBytes)
	fmt.Printf("  faults                %d (%d needed no fetch)\n", st.Faults, st.ZeroFetchFaults)
	fmt.Printf("  exchanges             %d\n", st.Exchanges)
	if cfg.Protocol == "adaptive" {
		fmt.Printf("  protocol switches     %d (%d unit(s) switched, %d home at end)\n",
			last.ProtocolSwitches, last.SwitchedUnits, last.HomeUnits)
	}
	if cfg.Placement != tmk.DefaultPlacement {
		fmt.Printf("  rehomes               %d (%d bytes of home state moved on the wire)\n",
			last.Rehomes, last.RehomeBytes)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}
