package ilink

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

func small() Config { return Config{Genarrays: 4, Len: 4096, Iters: 3, Procs: 8} }

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

// Paper §5.5: Ilink's signature is bimodal — the master's faults see all
// P-1 slaves as concurrent writers, slave faults see one writer (the
// master) — with very few useless messages despite pervasive write-write
// false sharing.
func TestBimodalSignature(t *testing.T) {
	res := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	sig := res.Stats.Signature
	if sig[1] == nil || sig[7] == nil {
		got := make([]int, 0, len(sig))
		for k := range sig {
			got = append(got, k)
		}
		t.Fatalf("signature missing 1 or 7 bucket: have %v", got)
	}
	extremes := sig[1].Faults + sig[7].Faults
	total := 0
	for _, b := range sig {
		total += b.Faults
	}
	if float64(extremes) < 0.8*float64(total) {
		t.Fatalf("bimodal fraction = %d/%d", extremes, total)
	}
	useless := res.Stats.Messages.Useless
	if float64(useless) > 0.05*float64(res.Stats.Messages.Total()) {
		t.Fatalf("useless msgs = %d of %d, want few", useless, res.Stats.Messages.Total())
	}
}

// Aggregation is beneficial for Ilink: every processor accesses every
// page, so larger units cut messages without adding false sharing.
func TestAggregationBeneficial(t *testing.T) {
	r4 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 1, Collect: true})
	r16 := mustRun(t, small(), tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	if r16.Stats.Messages.Total() >= r4.Stats.Messages.Total() {
		t.Fatalf("messages: 4K=%d 16K=%d", r4.Stats.Messages.Total(), r16.Stats.Messages.Total())
	}
	if r16.Time >= r4.Time {
		t.Fatalf("time: 4K=%v 16K=%v", r4.Time, r16.Time)
	}
	// Signature shape barely moves ("virtually no change" for Ilink).
	if r16.Stats.Messages.Useless > r4.Stats.Messages.Useless+r4.Stats.Messages.Total()/20 {
		t.Fatalf("useless grew: 4K=%d 16K=%d",
			r4.Stats.Messages.Useless, r16.Stats.Messages.Useless)
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	b := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	if a.Time != b.Time || a.Messages != b.Messages {
		t.Fatal("nondeterministic")
	}
}

// The registry entry is the workload's only name: "Ilink" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("Ilink", "")
	if !ok {
		t.Fatal("Ilink is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("Ilink does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
