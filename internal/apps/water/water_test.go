package water

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Molecules: 96, Steps: 2, Procs: 8} }

func mustRun(t *testing.T, c Config, ec tmk.Config) *tmk.Result {
	t.Helper()
	a := New(c)
	res, err := apps.Run(a, ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectSingleProc(t *testing.T) {
	c := Config{Molecules: 32, Steps: 2, Procs: 1}
	if _, err := apps.Run(New(c), tmk.Config{Procs: 1, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

// Paper §5.5: Water mixes write-write false sharing with extensive true
// sharing (each processor reads half the array), so piggybacked useless
// data (private molecule fields) is substantial. Our lock-phase force
// accumulation produces a higher useless-message fraction than the
// paper's run on the input our dataset stands in for (the registry's
// Paper field, printed by `dsmrun -list`), but it must stay below half.
func TestSharingShape(t *testing.T) {
	res := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	if res.Stats.PiggybackedBytes == 0 {
		t.Fatal("expected piggybacked useless data (private molecule fields)")
	}
	if res.Stats.Messages.Useless > res.Stats.Messages.Total()/2 {
		t.Fatalf("useless = %d of %d, want < half",
			res.Stats.Messages.Useless, res.Stats.Messages.Total())
	}
}

// Larger units increase Water's useless data ("slight increase in the
// number of useless messages when going to larger consistency units"),
// and dynamic aggregation stays within a few percent of the 4 KB page.
func TestUnitSizeEffects(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r16 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	rd := mustRun(t, small(), tmk.Config{Procs: 8, Dynamic: true, Collect: true})
	if r16.Stats.UselessBytes <= r4.Stats.UselessBytes {
		t.Fatalf("useless bytes: 4K=%d 16K=%d, want growth",
			r4.Stats.UselessBytes, r16.Stats.UselessBytes)
	}
	if ratio := float64(rd.Time) / float64(r4.Time); ratio > 1.10 {
		t.Fatalf("dynamic/4K time ratio = %.3f, want <= 1.10", ratio)
	}
}

// The registry entry is the workload's only name: "Water" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("Water", "")
	if !ok {
		t.Fatal("Water is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("Water does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 96 {
		t.Fatalf("locks = %d, want 96", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
