package jacobi

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

func cfg(rows, cols int) Config {
	return Config{Rows: rows, Cols: cols, Iters: 3, Procs: 8}
}

func TestCorrectAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		a := New(cfg(32, 512))
		res, err := apps.Run(a, tmk.Config{Procs: 8, UnitPages: up, Collect: true})
		if err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
		if res.Time <= 0 {
			t.Fatalf("unit=%d: no simulated time", up)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	a := New(cfg(32, 512))
	if _, err := apps.Run(a, tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectAtOtherProcCounts(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		a := New(cfg(32, 512))
		if _, err := apps.Run(a, tmk.Config{Procs: procs, Collect: true}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

// Paper §5.5: with row == 1 page there is no useless data at the 4 KB
// unit, but useless (piggybacked) data appears at 8 KB — and never any
// useless messages.
func TestRowEqualsPageFalseSharingShape(t *testing.T) {
	r4 := mustRun(t, cfg(32, 512), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r8 := mustRun(t, cfg(32, 512), tmk.Config{Procs: 8, UnitPages: 2, Collect: true})

	if r4.Stats.Messages.Useless != 0 || r8.Stats.Messages.Useless != 0 {
		t.Fatalf("useless msgs: 4K=%d 8K=%d, want 0 (boundary pages always truly shared)",
			r4.Stats.Messages.Useless, r8.Stats.Messages.Useless)
	}
	pig4 := r4.Stats.PiggybackedBytes + r4.Stats.UselessBytes
	pig8 := r8.Stats.PiggybackedBytes + r8.Stats.UselessBytes
	if pig8 <= pig4 {
		t.Fatalf("useless data must grow at 8K: 4K=%d 8K=%d", pig4, pig8)
	}
	if r8.Stats.Messages.Total() >= r4.Stats.Messages.Total() {
		t.Fatalf("aggregation must still reduce messages: 4K=%d 8K=%d",
			r4.Stats.Messages.Total(), r8.Stats.Messages.Total())
	}
}

// With rows of 2 pages ("2Kx2K" analogue) the 8 KB unit matches the row
// exactly: no new useless data until 16 KB.
func TestRowEqualsTwoPagesShape(t *testing.T) {
	r8 := mustRun(t, cfg(16, 1024), tmk.Config{Procs: 8, UnitPages: 2, Collect: true})
	r16 := mustRun(t, cfg(16, 1024), tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	pig8 := r8.Stats.PiggybackedBytes + r8.Stats.UselessBytes
	pig16 := r16.Stats.PiggybackedBytes + r16.Stats.UselessBytes
	if pig16 <= pig8 {
		t.Fatalf("useless data must appear only at 16K: 8K=%d 16K=%d", pig8, pig16)
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(t, cfg(16, 512), tmk.Config{Procs: 4, Collect: true})
	b := mustRun(t, cfg(16, 512), tmk.Config{Procs: 4, Collect: true})
	if a.Time != b.Time || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("nondeterministic: %v/%d/%d vs %v/%d/%d",
			a.Time, a.Messages, a.Bytes, b.Time, b.Messages, b.Bytes)
	}
}

// Each Jacobi paper dataset's registry name states its row size in
// pages ("row=2pg"), and the workload it builds has rows of that size.
func TestDatasetName(t *testing.T) {
	if New(cfg(32, 512)).RowBytes() != mem.PageSize {
		t.Fatal("row bytes")
	}
	for _, pages := range []int{1, 2} {
		name := fmt.Sprintf("row=%dpg", pages)
		e, ok := apps.Lookup("Jacobi", name)
		if !ok {
			t.Fatalf("no Jacobi dataset %q", name)
		}
		if got := e.Make(8).(*App).RowBytes(); got != pages*mem.PageSize {
			t.Errorf("%s: rows are %d bytes, want %d", e.Dataset, got, pages*mem.PageSize)
		}
	}
}

func TestCheckWithoutRunFails(t *testing.T) {
	if New(cfg(8, 64)).Check() == nil {
		t.Fatal("Check before Body must fail")
	}
}

func mustRun(t *testing.T, c Config, ec tmk.Config) *tmk.Result {
	t.Helper()
	a := New(c)
	res, err := apps.Run(a, ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
