// Command dsmbench regenerates the paper's evaluation: Table 1 and
// Figures 1–3, plus the §5.1 platform-calibration microbenchmarks.
//
// Usage:
//
//	dsmbench -all            # everything (dsmrun -list maps each dataset to the paper's as "(paper: …)")
//	dsmbench -all -json      # the same, as one machine-readable document
//	dsmbench -table 1        # sequential times and 8-processor speedups
//	dsmbench -figure 1       # Barnes/Ilink/TSP/Water breakdowns
//	dsmbench -figure 2       # size-sensitive apps
//	dsmbench -figure 3       # false-sharing signatures at 4K and 16K
//	dsmbench -micro          # simulated platform costs vs the paper's
//	dsmbench -protocols      # homeless vs home-based LRC, per application
//	dsmbench -networks       # network sensitivity: every app across every interconnect model
//	dsmbench -placements     # home placement: every app × placement policy × {home, adaptive}, ideal + bus
//	dsmbench -all -protocol home   # regenerate everything on home-based LRC
//	dsmbench -all -network switch  # regenerate everything on the contended switch model
//	dsmbench -all -placement firsttouch  # regenerate everything with first-writer homes
//
// Every cell is verified against the application's sequential reference
// before its numbers are printed. With -json the text tables are
// replaced by a single JSON document (the §5.1 calibration table is
// text-only and skipped): each section is a list of cells in the order
// its table prints, and every engine-run cell carries its run's digest,
// so two commits' outputs compare cell by cell. A cell derived by trace
// replay (-networks) is marked "derived" and has no digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"

	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/prof"
	"repro/internal/tmk"
)

// document is the -json output: only the requested sections are set.
type document struct {
	Table1     []harness.CellJSON `json:"table1,omitempty"`
	Figure1    []harness.CellJSON `json:"figure1,omitempty"`
	Figure2    []harness.CellJSON `json:"figure2,omitempty"`
	Figure3    []harness.CellJSON `json:"figure3,omitempty"`
	Protocols  []harness.CellJSON `json:"protocols,omitempty"`
	Networks   []harness.CellJSON `json:"networks,omitempty"`
	Placements []harness.CellJSON `json:"placements,omitempty"`
}

func main() {
	table := flag.Int("table", 0, "regenerate Table N (1)")
	figure := flag.Int("figure", 0, "regenerate Figure N (1, 2, or 3)")
	micro := flag.Bool("micro", false, "print the §5.1 platform calibration (text only)")
	protocols := flag.Bool("protocols", false, "compare coherence protocols per application (4 KB units)")
	networks := flag.Bool("networks", false, "network sensitivity: every application across every registered interconnect model")
	placements := flag.Bool("placements", false, "home placement: every application across every placement policy for the home and adaptive protocols, on ideal and bus")
	protocol := flag.String("protocol", tmk.DefaultProtocol,
		"coherence protocol for tables/figures: "+strings.Join(tmk.ProtocolNames(), " or "))
	network := flag.String("network", netmodel.Default,
		"interconnect timing model for tables/figures: "+strings.Join(netmodel.Names(), ", "))
	placement := flag.String("placement", tmk.DefaultPlacement,
		"home-placement policy for tables/figures: "+strings.Join(tmk.PlacementNames(), ", "))
	all := flag.Bool("all", false, "regenerate everything")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to FILE at exit")
	flag.Parse()

	// The sweeps are batch jobs with a small live heap (one cell per
	// worker) and heavy short-lived allocation (twins, diffs, page
	// materialization — ~0.5 GB churn per -networks sweep), so the
	// default GOGC=100 spends a sizable slice of wall clock collecting
	// a heap that is mostly garbage. Trade headroom for wall time
	// unless the operator chose a setting.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		check(err)
	}
	defer stopProf()

	if !*all && *table == 0 && *figure == 0 && !*micro && !*protocols && !*networks && !*placements {
		flag.Usage()
		os.Exit(2)
	}
	_, err = tmk.Config{Protocol: *protocol, Network: *network, Placement: *placement}.Resolve()
	check(err)
	if *table != 0 && *table != 1 {
		check(fmt.Errorf("unknown table %d (only Table 1 exists)", *table))
	}
	if *figure < 0 || *figure > 3 {
		check(fmt.Errorf("unknown figure %d (want 1, 2, or 3)", *figure))
	}
	var doc document
	text := !*jsonOut
	// section runs one grid, then renders it under title (text) or
	// returns its cells (-json).
	section := func(title string, points []harness.Point, collect bool,
		render func(io.Writer, []harness.Point, []harness.Cell)) []harness.CellJSON {
		cells, err := harness.RunGrid(points, collect)
		check(err)
		if text {
			fmt.Println(title)
			render(os.Stdout, points, cells)
			return nil
		}
		out := make([]harness.CellJSON, len(cells))
		for i, p := range points {
			out[i] = harness.CellReport(p.Exp, p.Config, p.Procs, cells[i])
		}
		return out
	}
	// The table and figures run on the -protocol, -network and
	// -placement axes.
	axes := harness.Config{Protocol: *protocol, Network: *network, Placement: *placement}
	figurePoints := func(es []harness.Experiment, cfgs []harness.Config) []harness.Point {
		for i := range cfgs {
			cfgs[i].Protocol, cfgs[i].Network, cfgs[i].Placement = axes.Protocol, axes.Network, axes.Placement
		}
		return harness.FigurePoints(es, cfgs)
	}

	if *micro || *all {
		if text {
			fmt.Println("=== §5.1 platform calibration ===")
			harness.RenderMicro(os.Stdout)
			fmt.Println()
		} else if *micro {
			fmt.Fprintln(os.Stderr, "dsmbench: the §5.1 calibration table is text-only; omitted from -json output")
		}
	}
	if *table == 1 || *all {
		doc.Table1 = section("=== Table 1: datasets, sequential (simulated) time, 8-processor speedup at 4 KB ===",
			harness.Table1Points(harness.Table1(), axes), true, harness.RenderTable1)
	}
	if *figure == 1 || *all {
		doc.Figure1 = section("=== Figure 1: execution time, messages, data (normalized to 4 KB) ===",
			figurePoints(harness.Figure1(), harness.Configs()), true, harness.RenderFigure)
	}
	if *figure == 2 || *all {
		doc.Figure2 = section("=== Figure 2: size-sensitive applications (normalized to 4 KB) ===",
			figurePoints(harness.Figure2(), harness.Configs()), true, harness.RenderFigure)
	}
	if *figure == 3 || *all {
		cfgs := harness.Configs() // the signatures compare 4K (cfgs[0]) with 16K (cfgs[2])
		doc.Figure3 = section("=== Figure 3: false-sharing signatures (4 KB vs 16 KB) ===",
			figurePoints(harness.Figure3(), []harness.Config{cfgs[0], cfgs[2]}), true, harness.RenderSignature)
	}
	if *protocols || *all {
		doc.Protocols = section("=== Protocol comparison: homeless vs home-based LRC (4 KB units) ===",
			harness.ProtocolPoints(harness.Table1(), harness.Procs), true, harness.RenderProtocolComparison)
	}
	if *networks || *all {
		es := harness.Table1()
		ncs, err := harness.RunNetworkComparison(es, harness.Procs, nil)
		check(err)
		if text {
			fmt.Println("=== Network sensitivity: the protocol and aggregation trades per interconnect ===")
			harness.RenderNetworkComparison(os.Stdout, ncs)
		} else {
			for i, nc := range ncs {
				for _, row := range nc.Rows {
					for _, c := range row.Cells {
						cfg, _ := harness.ConfigByLabel(c.Config)
						cfg.Protocol, cfg.Network = c.Protocol, row.Network
						doc.Networks = append(doc.Networks, harness.CellReport(es[i], cfg, harness.Procs, c.Cell))
					}
				}
			}
		}
	}
	if *placements || *all {
		doc.Placements = section("=== Home placement: rr vs block vs firsttouch vs migrate (4 KB units, home & adaptive) ===",
			harness.PlacementPoints(harness.Table1(), harness.Procs, nil, nil), false, harness.RenderPlacementComparison)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(doc))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
}
