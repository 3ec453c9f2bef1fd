package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// BenchmarkAblationGroupSize sweeps the §4 group bound on the Barnes
// workload: DESIGN.md §4 fixes it at 4 pages, the largest static unit,
// so that Dyn never reaches further than the units it competes with.
func BenchmarkAblationGroupSize(b *testing.B) {
	e := harness.Figure1()[0] // Barnes
	for _, maxPages := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("maxGroup=%d", maxPages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := e.Make(harness.Procs)
				// The segment and locks apps.NewSystem would give it.
				sys, err := tmk.NewSystemMaxGroup(tmk.Config{
					Procs: harness.Procs, Dynamic: true, Collect: true,
					SegmentBytes: w.SegmentBytes() + 64*mem.PageSize, Locks: w.Locks(),
				}, maxPages)
				if err != nil {
					b.Fatal(err)
				}
				w.Prepare(sys)
				res := sys.Run(w.Body)
				if err := w.Check(); err != nil {
					b.Fatal(err)
				}
				sys.Release()
				if i == b.N-1 {
					b.ReportMetric(float64(res.Time.Microseconds())/1000, "sim-ms")
					b.ReportMetric(float64(res.Messages), "msgs")
				}
			}
		})
	}
}
