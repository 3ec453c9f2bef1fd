package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// tracedPass is the separate run that produces the per-layer numbers:
// the probes of the layers this workload leans on, then rounds in which
// the benchmark makes the per-layer calls itself, every other round with
// a span around each call. The difference between the recorded rounds
// and the others is what tracing costs.
func tracedPass(w workload, on owners, rounds int, o options, rep *childReport) error {
	for _, d := range perLayerMetrics {
		if d.On&on == 0 {
			// Everything else has to be produced below, or the run is wrong.
			rep.Metrics[d.Name] = 0
			rep.Detail[d.Name] = "not this workload's"
		}
	}
	probes := &prober{quick: o.quick, metrics: rep.Metrics, detail: rep.Detail}
	if err := probes.run(on); err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	rec := newRecorder()
	m := measure(w, rounds, rec)
	v := w.verify()
	rec.on = false
	rep.Rounds = m.Rounds
	rep.Attempted = m.Attempted + v.attempted
	rep.Failed = m.Failed + v.failed
	rep.Notes = append(m.Notes, v.notes...)

	var tracedWall, plainWall, plainEff []float64
	var tracedCPU float64 // seconds
	workers := float64(runtime.GOMAXPROCS(0))
	for i, r := range m.Rounds {
		wall, cpu := r.wall(), r.cpu()
		if i%2 == 0 {
			tracedWall = append(tracedWall, wall)
			tracedCPU += cpu
		} else {
			plainWall = append(plainWall, wall)
			plainEff = append(plainEff, cpu/(workers*wall))
		}
	}
	rep.Metrics["trace_overhead_share"] = median(tracedWall)/median(plainWall) - 1
	rep.Detail["trace_overhead_share"] = fmt.Sprintf("%d traced and %d untraced rounds in alternation", len(tracedWall), len(plainWall))
	if on&(onNet|onScale) != 0 {
		rep.Metrics["sweep.pool_efficiency"] = median(plainEff)
		rep.Detail["sweep.pool_efficiency"] = fmt.Sprintf("round cpu / (%d workers x round wall)", int(workers))
	}

	spans := rec.snapshot()
	tot := totalsByName(spans)
	var accounted int64
	for name, t := range tot {
		if !strings.Contains(name, ":") { // a tagged span is also counted under its bare name
			accounted += t.Self
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if cells := tot["tmk.run"].Count; cells > 0 {
		n := float64(cells)
		rep.Metrics["tmk.newsystem_ms_per_cell"] = ms(tot["tmk.newsystem"].Dur) / n
		rep.Metrics["tmk.run_ms_per_cell"] = ms(tot["tmk.run"].Dur) / n
		rep.Metrics["apps.make_ms_per_cell"] = ms(tot["apps.make"].Dur) / n
		rep.Metrics["apps.check_ms_per_cell"] = ms(tot["apps.check"].Dur) / n
		rep.Metrics["tmk.run_self_share"] = float64(tot["tmk.run"].Self) / float64(accounted)
		rep.Detail["tmk.run_self_share"] = fmt.Sprintf("of %.0f ms of span self time over %d traced cells", ms(accounted), cells)
	}
	if t := tot["harness.report"]; t.Count > 0 {
		rep.Metrics["harness.report_us_per_cell"] = ms(t.Dur) * 1e3 / float64(t.Count)
	}
	if t := tot["trace.derive"]; t.Count > 0 && tracedCPU > 0 {
		rep.Metrics["trace.derive_share"] = float64(t.Dur) / 1e9 / tracedCPU
		rep.Detail["trace.derive_share"] = fmt.Sprintf("%d derivations, %.0f ms, of %.0f ms round cpu", t.Count, ms(t.Dur), tracedCPU*1e3)
	}
	if c := w.layer(); c != nil && c.cells > 0 {
		rep.Metrics["mem.twins_per_cell"] = c.perCell(c.twins)
		rep.Metrics["mem.diffs_per_cell"] = c.perCell(c.diffs)
		rep.Metrics["lrc.intervals_per_cell"] = c.perCell(c.intervals)
		rep.Metrics["tmk.faults_per_cell"] = c.perCell(c.faults)
		rep.Metrics["simnet.msgs_per_cell"] = c.perCell(c.msgs)
		rep.Metrics["simnet.wire_kb_per_cell"] = c.perCell(c.wireBytes) / 1024
		if msgs := c.perCell(c.msgs); msgs > 0 {
			rep.Metrics["tmk.host_us_per_msg"] = rep.Metrics["tmk.run_ms_per_cell"] * 1e3 / msgs
		}
		if c.allMsgs > 0 {
			rep.Metrics["instrument.useless_msg_share"] = float64(c.useless) / float64(c.allMsgs)
			rep.Detail["instrument.useless_msg_share"] = fmt.Sprintf("%d of %d messages on the replay-safe cells", c.useless, c.allMsgs)
		}
		if c.captures > 0 {
			rep.Metrics["trace.events_per_cell"] = float64(c.events) / float64(c.captures)
		}
	}

	switch wl := w.(type) {
	case *netSweep:
		wl.deriveSpeedup(rep)
	case *serveMix:
		wl.latencyMetrics(rep)
		wl.mixMetrics(rep)
		if all := tot["expsvc.request"]; all.Dur > 0 {
			rep.Metrics["expsvc.hit_wall_share"] = float64(tot["expsvc.request:hit"].Dur) / float64(all.Dur)
		}
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeFile(filepath.Join(o.outDir, "trace-"+o.workload+".json"))
}

// deriveSpeedup times one round through the harness with replay
// derivation on and one with every cell forced through the engine.
func (n *netSweep) deriveSpeedup(rep *childReport) {
	derived := timed(func() { n.round(0, nil) })
	engine := timed(func() { n.verify() })
	rep.Metrics["harness.derive_speedup"] = float64(engine) / float64(derived)
	rep.Detail["harness.derive_speedup"] = fmt.Sprintf("all-engine round %.2f s / derived round %.2f s", engine.Seconds(), derived.Seconds())
}

// latencyMetrics reports percentiles over every timed request and the
// per-class medians.
func (s *serveMix) latencyMetrics(rep *childReport) {
	var all []float64
	for _, l := range s.lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return
	}
	sort.Float64s(all)
	rep.Metrics["expsvc.req_ms_p50"] = percentile(all, 50)
	rep.Metrics["expsvc.req_ms_p99"] = percentile(all, 99)
	rep.Detail["expsvc.req_ms_p50"] = fmt.Sprintf("n=%d requests", len(all))
	rep.Detail["expsvc.req_ms_p99"] = rep.Detail["expsvc.req_ms_p50"]
	classP50 := func(disp int) float64 {
		if len(s.lat[disp]) == 0 {
			return 0
		}
		return percentile(sortedCopy(s.lat[disp]), 50)
	}
	rep.Metrics["expsvc.hit_us_p50"] = classP50(dispHit) * 1e3
	rep.Metrics["expsvc.derived_us_p50"] = classP50(dispDerived) * 1e3
	rep.Metrics["expsvc.miss_ms_p50"] = classP50(dispMiss)
}

// mixMetrics reports the measured class shares and the server's own
// counters over the timed rounds.
func (s *serveMix) mixMetrics(rep *childReport) {
	share, _ := s.shares()
	rep.Metrics["expsvc.hit_share"] = share[dispHit]
	rep.Metrics["expsvc.derived_share"] = share[dispDerived]
	rep.Metrics["expsvc.miss_share"] = share[dispMiss]
	rep.Metrics["expsvc.coalesced_share"] = share[dispCoalesced]
	now := s.svc.Stats()
	rep.Metrics["expsvc.engine_runs"] = float64(now.Runs - s.statsAtStart.Runs)
	rep.Metrics["expsvc.cache_evictions"] = float64(now.CacheEvictions - s.statsAtStart.CacheEvictions)
}

// --- A/A ---------------------------------------------------------------------

// aaRuns is how many runs of each workload each of the two sets gets.
const aaRuns = 5

// runAA runs every workload in two alternating sets on the same code
// and fails if any end-to-end metric's two medians differ by more than
// half its bound: a benchmark that cannot tell a commit from itself
// cannot tell it from another.
func runAA(o options) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	printEnvironment()
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	digests := map[string]map[string]bool{}
	for i := 0; i < aaRuns; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				wo := o
				wo.workload, wo.seed, wo.trace = name, o.seed+int64(i), 0
				rep, err := spawn(wo)
				if err != nil {
					return err
				}
				if rep.Failed > 0 {
					return fmt.Errorf("%s: %d of %d checks failed: %v", name, rep.Failed, rep.Attempted, rep.Notes)
				}
				for _, d := range endToEndMetrics {
					k := key{name, d.Name}
					sets[set][k] = append(sets[set][k], rep.Metrics[d.Name])
				}
				run := fmt.Sprintf("%s seed %d", name, wo.seed)
				if digests[run] == nil {
					digests[run] = map[string]bool{}
				}
				digests[run][rep.SimDigest] = true
				fmt.Printf("# run %d set %c %s: %.5g cells/s, sim_digest %s\n", i+1, 'A'+set, name, rep.Metrics["cells_per_s"], rep.SimDigest)
			}
		}
	}
	fmt.Printf("\n| workload | metric | unit | median A | median B | B vs A | allowed |\n|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, name := range names {
		for _, d := range endToEndMetrics {
			a, b := median(sets[0][key{name, d.Name}]), median(sets[1][key{name, d.Name}])
			diff := (b - a) / a
			verdict := ""
			if diff > d.Bound/2 || diff < -d.Bound/2 {
				verdict = " FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %+.2f%%%s | ±%.1f%% |\n", name, d.Name, d.Unit, a, b, 100*diff, verdict, 100*d.Bound/2)
		}
	}
	for run, seen := range digests {
		if len(seen) != 1 {
			fmt.Printf("%s: sim_digest differed between the two sets: %v\n", run, seen)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d comparisons outside half their bound", failed)
	}
	fmt.Println("\nA/A passed: every pair of medians within half its bound, sim_digest identical in both sets.")
	return nil
}
