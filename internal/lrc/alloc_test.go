package lrc

import (
	"testing"

	"repro/internal/vc"
)

// TestAllocBudgetDeltaPath pins the interval-store read path at zero
// steady-state allocations: an acquire's delta computation refills a
// caller-owned slice (DeltaInto), the causal sort is in-place
// insertion over precomputed keys, and per-unit diff lookups are
// subslice views into the interval's page-sorted diff table.
func TestAllocBudgetDeltaPath(t *testing.T) {
	const nprocs = 4
	s := NewStore(nprocs)
	ts := vc.New(nprocs)
	for p := 0; p < nprocs; p++ {
		for i := int32(1); i <= 8; i++ {
			ts.Tick(p)
			s.Publish(MakeInterval(
				vc.IntervalID{Proc: p, Seq: i}, vc.DenseStamp(ts.Clone()),
				[]int{int(i) % 4},
				[]PageDiff{{Page: int(i) % 4}, {Page: 4 + int(i)%4}},
			))
		}
	}
	from, to := vc.New(nprocs), ts.Clone()

	var buf []*Interval
	buf = s.DeltaInto(from, to, buf) // size the buffer once
	if len(buf) != nprocs*8 {
		t.Fatalf("delta covers %d intervals, want %d", len(buf), nprocs*8)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = s.DeltaInto(from, to, buf)
	}); n != 0 {
		t.Errorf("DeltaInto (reused buffer): %v allocs/op, want 0", n)
	}

	iv := buf[0]
	if n := testing.AllocsPerRun(100, func() {
		_, _ = iv.Diff(iv.Diffs[0].Page)
		_ = iv.DiffsInUnit(iv.Units[0], 1)
		_, _, _ = iv.CausalKey()
	}); n != 0 {
		t.Errorf("interval lookups: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		SortCausally(buf)
	}); n != 0 {
		t.Errorf("SortCausally: %v allocs/op, want 0", n)
	}
}

// TestAllocBudgetStorePublish pins what filling a store allocates: 64
// intervals from each of 256 processors, each writing three of 1,024
// units, are O(chunks) objects, not O(lists). Lists that each grew by
// their own doubling allocations made 5,120 objects here. Publish (the
// intervals built beforehand) and Record (the store building them too)
// are held to the same budget.
func TestAllocBudgetStorePublish(t *testing.T) {
	const procs, each, units, budget = 256, 64, 1024, 48
	ts := vc.DenseStamp(vc.New(procs))
	unitsOf := func(p, seq int) []int {
		u := (p*each + seq) * 3 % units
		return []int{u, (u + 1) % units, (u + 2) % units}
	}
	var ivs []*Interval
	for seq := 1; seq <= each; seq++ {
		for p := 0; p < procs; p++ {
			ivs = append(ivs, MakeInterval(vc.IntervalID{Proc: p, Seq: int32(seq)}, ts, unitsOf(p, seq), nil))
		}
	}
	fill := func(publish func(s *Store, iv *Interval)) float64 {
		return testing.AllocsPerRun(3, func() {
			s := NewStore(procs)
			s.Reserve(units)
			for _, iv := range ivs {
				publish(s, iv)
			}
			if n := len(s.UnitLog(0)); n != procs*each*3/units {
				t.Fatalf("unit 0 has %d intervals, want %d", n, procs*each*3/units)
			}
		})
	}
	if n := fill(func(s *Store, iv *Interval) { s.Publish(iv) }); n > budget {
		t.Errorf("Publish into a fresh store: %v allocations, budget %d", n, budget)
	} else {
		t.Logf("Publish: %v allocations", n)
	}
	if n := fill(func(s *Store, iv *Interval) { s.Record(iv.ID, iv.TS, iv.Units, iv.Diffs) }); n > budget {
		t.Errorf("Record into a fresh store: %v allocations, budget %d", n, budget)
	} else {
		t.Logf("Record: %v allocations", n)
	}
}
