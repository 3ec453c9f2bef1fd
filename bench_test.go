// Benchmarks regenerating the paper's evaluation. One benchmark per
// table/figure cell: BenchmarkTable1, BenchmarkFigure1, BenchmarkFigure2,
// BenchmarkFigure3, plus the §5.1 protocol microbenchmarks and the
// instrumentation-overhead ablation (the §4 group-bound ablation is
// internal/tmk's BenchmarkAblationGroupSize).
//
// Reported custom metrics:
//
//	sim-ms        simulated execution time of the run (the figures' bars)
//	msgs          protocol messages
//	useless-msgs  messages classified useless per §5.3
//	data-KB       diff payload
//	writers-mean  mean concurrent-writer cardinality (Figure 3)
//
// Wall-clock ns/op measures the simulator itself, not the paper's system.
package dsm

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/tmk"
)

// mustNew builds a façade System for the micro benchmarks.
func mustNew(b *testing.B, opts ...Option) *System {
	b.Helper()
	sys, err := New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchCell(b *testing.B, e harness.Experiment, c harness.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cell, err := harness.Run(e, c, harness.Procs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			st := cell.Stats
			b.ReportMetric(float64(cell.Time.Microseconds())/1000, "sim-ms")
			b.ReportMetric(float64(st.Messages.Total()), "msgs")
			b.ReportMetric(float64(st.Messages.Useless), "useless-msgs")
			b.ReportMetric(float64(st.TotalDataBytes())/1024, "data-KB")
		}
	}
}

// BenchmarkTable1 regenerates Table 1: per application, the simulated
// sequential time (sim-ms on the seq sub-benchmark) and the 8-processor
// run at the 4 KB unit; speedup = seq/par.
func BenchmarkTable1(b *testing.B) {
	for _, e := range harness.Table1() {
		e := e
		b.Run(e.App+"/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell, err := harness.Run(e, harness.Config{Label: "seq", Unit: 1}, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cell.Time.Microseconds())/1000, "sim-ms")
			}
		})
		b.Run(e.App+"/8proc-4K", func(b *testing.B) {
			benchCell(b, e, harness.Config{Label: "4K", Unit: 1})
		})
	}
}

// BenchmarkFigure1 regenerates Figure 1 (Barnes, Ilink, TSP, Water at
// 4K/8K/16K/Dyn).
func BenchmarkFigure1(b *testing.B) {
	for _, e := range harness.Figure1() {
		for _, c := range harness.Configs() {
			e, c := e, c
			b.Run(fmt.Sprintf("%s/%s", e.App, c.Label), func(b *testing.B) {
				benchCell(b, e, c)
			})
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (the size-sensitive apps).
func BenchmarkFigure2(b *testing.B) {
	for _, e := range harness.Figure2() {
		for _, c := range harness.Configs() {
			e, c := e, c
			b.Run(fmt.Sprintf("%s-%s/%s", e.App, e.Dataset, c.Label), func(b *testing.B) {
				benchCell(b, e, c)
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the false-sharing signatures at
// 4 KB and 16 KB, reported as the histogram's mean writer count.
func BenchmarkFigure3(b *testing.B) {
	for _, e := range harness.Figure3() {
		for _, c := range []harness.Config{{Label: "4K", Unit: 1}, {Label: "16K", Unit: 4}} {
			e, c := e, c
			b.Run(fmt.Sprintf("%s/%s", e.App, c.Label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cell, err := harness.Run(e, c, harness.Procs)
					if err != nil {
						b.Fatal(err)
					}
					sig := core.SignatureOf(cell.Stats)
					b.ReportMetric(sig.Mean(), "writers-mean")
					b.ReportMetric(float64(cell.Stats.Messages.Useless), "useless-msgs")
				}
			})
		}
	}
}

// --- §5.1 protocol microbenchmarks (simulated costs + real engine speed) ----

// BenchmarkMicroMessagePassing measures the basic barrier + one-page
// transfer path (cf. the paper's 296 µs RTT and 861 µs barrier).
func BenchmarkMicroMessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := mustNew(b, WithProcs(2), WithSegmentBytes(PageSize), WithCollection(true))
		res := sys.Run(func(p *Proc) {
			if p.ID() == 0 {
				for w := 0; w < 512; w++ {
					p.WriteF64(8*w, float64(w))
				}
			}
			p.Barrier()
			if p.ID() == 1 {
				for w := 0; w < 512; w++ {
					p.ReadF64(8 * w)
				}
			}
		})
		if i == b.N-1 {
			b.ReportMetric(float64(res.Time.Microseconds()), "sim-us")
		}
	}
}

// BenchmarkMicroLockTransfer measures a lock hand-off chain (cf. the
// paper's 374–574 µs lock acquisition).
func BenchmarkMicroLockTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := mustNew(b, WithProcs(4), WithSegmentBytes(PageSize), WithLocks(1), WithCollection(true))
		res := sys.Run(func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Lock(0)
				p.WriteI64(0, p.ReadI64(0)+1)
				p.Unlock(0)
			}
		})
		if i == b.N-1 {
			b.ReportMetric(float64(res.Time.Microseconds()), "sim-us")
		}
	}
}

// BenchmarkMicroBarrier measures back-to-back barriers (861 µs each on
// the paper's platform).
func BenchmarkMicroBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := mustNew(b, WithProcs(8), WithSegmentBytes(PageSize))
		res := sys.Run(func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Barrier()
			}
		})
		if i == b.N-1 {
			b.ReportMetric(float64(res.Time.Microseconds())/10, "sim-us-per-barrier")
		}
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationInstrumentation measures the real-time cost of the
// §5.3 word-level instrumentation (Collect on/off) on Jacobi.
func BenchmarkAblationInstrumentation(b *testing.B) {
	e := harness.Figure2()[0]
	for _, collect := range []bool{false, true} {
		collect := collect
		b.Run(fmt.Sprintf("collect=%v", collect), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := e.Make(harness.Procs)
				if _, err := apps.Run(w, tmk.Config{
					Procs: harness.Procs, Collect: collect,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAccessPath measures the raw shared-access rate of the
// simulator (fault-free reads), the figure that bounds how large a
// dataset the reproduction can afford.
func BenchmarkEngineAccessPath(b *testing.B) {
	sys := mustNew(b, WithProcs(1), WithSegmentBytes(1<<20), WithCollection(true))
	b.ResetTimer()
	var sink float64
	sys.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sink += p.ReadF64(8 * (i & 1023))
		}
	})
	_ = sink
}
