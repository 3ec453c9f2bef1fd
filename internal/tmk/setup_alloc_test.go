package tmk

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
)

// TestAllocBudgetSystemSetup pins what a processor costs before it
// faults once. Over a segment four times larger, NewSystem's bytes per
// processor may grow by at most 16 a page: the page table entry, the
// frame pointer, and the held list and its mark. The fetch scratch is
// sized by the work of a fault, so construction leaves every one of its
// slices unallocated — nothing in it is indexed by processor or page.
func TestAllocBudgetSystemSetup(t *testing.T) {
	const procs, pages = 64, 1024
	build := func(pages int) (perProc float64, s *System) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewSystem(Config{Procs: procs, SegmentBytes: pages * mem.PageSize})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / procs, s
	}
	small, _ := build(pages)
	large, s := build(4 * pages)
	growth := (large - small) / (3 * pages)
	t.Logf("NewSystem per processor: %.0f B over %d pages, %.0f B over %d: %.1f B a page", small, pages, large, 4*pages, growth)
	if growth > 16 {
		t.Errorf("NewSystem per processor: %.0f B over %d pages, %.0f B over %d: %.1f B a page, budget 16",
			small, pages, large, 4*pages, growth)
	}
	for _, p := range s.procs {
		v := reflect.ValueOf(p.fs)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() != 0 {
				t.Fatalf("processor %d: NewSystem allocated fetchScratch.%s (cap %d)", p.id, v.Type().Field(i).Name, f.Cap())
			}
		}
	}
}
