package lrc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/vc"
)

// mkInterval builds an interval with unitPages=1 (unit == page) and one
// modified word per page.
func mkInterval(proc int, seq int32, ts vc.Time, pages ...int) *Interval {
	diffs := make([]PageDiff, len(pages))
	for i, p := range pages {
		page := make([]byte, mem.PageSize)
		tw := mem.MakeTwin(page)
		page[0] = byte(proc + 1) // one modified word
		diffs[i] = PageDiff{Page: p, D: mem.EncodeDiff(tw, page)}
	}
	return MakeInterval(vc.IntervalID{Proc: proc, Seq: seq}, vc.DenseStamp(ts), pages, diffs)
}

func TestIntervalDiffLookup(t *testing.T) {
	iv := mkInterval(0, 1, vc.Time{1, 0}, 3, 7)
	if _, ok := iv.Diff(3); !ok {
		t.Fatal("diff for written page missing")
	}
	if _, ok := iv.Diff(5); ok {
		t.Fatal("diff for unwritten page present")
	}
}

func TestDiffsInUnit(t *testing.T) {
	// Unit of 2 pages: unit 1 covers pages 2,3; unit 3 covers 6,7.
	iv := mkInterval(0, 1, vc.Time{1, 0}, 2, 3, 7)
	in1 := iv.DiffsInUnit(1, 2)
	if len(in1) != 2 || in1[0].Page != 2 || in1[1].Page != 3 {
		t.Fatalf("DiffsInUnit(1,2) = %v", in1)
	}
	in3 := iv.DiffsInUnit(3, 2)
	if len(in3) != 1 || in3[0].Page != 7 {
		t.Fatalf("DiffsInUnit(3,2) = %v", in3)
	}
	if got := iv.DiffsInUnit(0, 2); len(got) != 0 {
		t.Fatalf("DiffsInUnit(0,2) = %v, want empty", got)
	}
}

func TestMakeIntervalPanicsOnDuplicateDiff(t *testing.T) {
	page := make([]byte, mem.PageSize)
	tw := mem.MakeTwin(page)
	page[0] = 1
	d := mem.EncodeDiff(tw, page)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeInterval(vc.IntervalID{Proc: 0, Seq: 1}, vc.DenseStamp(vc.Time{1}),
		[]int{0}, []PageDiff{{Page: 0, D: d}, {Page: 0, D: d}})
}

func TestNoticeBytes(t *testing.T) {
	iv := mkInterval(0, 1, vc.Time{1, 0}, 3, 7)
	// 8 header + 2 procs * 4 + 2 pages * 4
	if got := iv.NoticeBytes(); got != 8+8+8 {
		t.Fatalf("NoticeBytes = %d", got)
	}
}

func TestStorePublishAndGet(t *testing.T) {
	s := NewStore(2)
	iv := mkInterval(1, 1, vc.Time{0, 1}, 4)
	s.Publish(iv)
	if got := s.Get(1, 1); got != iv {
		t.Fatal("Get returned wrong interval")
	}
}

func TestStorePublishOutOfOrderPanics(t *testing.T) {
	s := NewStore(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Publish(mkInterval(0, 2, vc.Time{2, 0}, 1))
}

func TestDeltaReturnsExactlyUnseen(t *testing.T) {
	s := NewStore(2)
	s.Publish(mkInterval(0, 1, vc.Time{1, 0}, 1))
	s.Publish(mkInterval(0, 2, vc.Time{2, 0}, 2))
	s.Publish(mkInterval(1, 1, vc.Time{0, 1}, 3))

	from := vc.Time{1, 0}
	to := vc.Time{2, 1}
	delta := s.Delta(from, to)
	if len(delta) != 2 {
		t.Fatalf("delta = %d intervals, want 2", len(delta))
	}
	ids := map[vc.IntervalID]bool{}
	for _, iv := range delta {
		ids[iv.ID] = true
	}
	if !ids[vc.IntervalID{Proc: 0, Seq: 2}] || !ids[vc.IntervalID{Proc: 1, Seq: 1}] {
		t.Fatalf("delta ids = %v", ids)
	}
}

func TestDeltaEmptyWhenCaughtUp(t *testing.T) {
	s := NewStore(2)
	s.Publish(mkInterval(0, 1, vc.Time{1, 0}, 1))
	if d := s.Delta(vc.Time{1, 0}, vc.Time{1, 0}); len(d) != 0 {
		t.Fatalf("delta = %v, want empty", d)
	}
}

func TestSortCausallyRespectsHappensBefore(t *testing.T) {
	// p0 closes i1 at <1,0>; p1 acquires from p0 then closes i1 at <1,1>;
	// p0 closes i2 at <2,0> concurrent with p1's i1? <2,0> vs <1,1> are
	// concurrent. The sort must place <1,0> first.
	a := mkInterval(0, 1, vc.Time{1, 0}, 1)
	b := mkInterval(1, 1, vc.Time{1, 1}, 2)
	c := mkInterval(0, 2, vc.Time{2, 0}, 3)
	ivs := []*Interval{c, b, a}
	SortCausally(ivs)
	if ivs[0] != a {
		t.Fatalf("first interval = %v, want %v", ivs[0].ID, a.ID)
	}
	// b and c are concurrent; order must be deterministic (sum equal ⇒
	// proc order): c (proc 0) before b (proc 1).
	if ivs[1] != c || ivs[2] != b {
		t.Fatalf("tie order = %v, %v", ivs[1].ID, ivs[2].ID)
	}
}

// Property: for random interval DAGs built from merges, SortCausally is a
// linear extension of happens-before (TS(a) < TS(b) ⇒ a before b).
func TestPropSortCausallyLinearExtension(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			const procs = 4
			vts := make([]vc.Time, procs)
			for p := range vts {
				vts[p] = vc.New(procs)
			}
			var ivs []*Interval
			seqs := [procs]int32{}
			// Random schedule: each step one proc ticks (closing an
			// interval), occasionally merging another proc's time first
			// (modelling an acquire).
			for step := 0; step < 20; step++ {
				p := r.Intn(procs)
				if r.Intn(2) == 0 {
					vts[p].Merge(vts[r.Intn(procs)])
				}
				seqs[p]++
				vts[p][p] = seqs[p]
				ivs = append(ivs, mkInterval(p, seqs[p], vts[p].Clone(), step%8))
			}
			args[0] = reflect.ValueOf(ivs)
		},
	}
	f := func(ivs []*Interval) bool {
		SortCausally(ivs)
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[j].TS.Dense(nil).Before(ivs[i].TS.Dense(nil)) {
					return false // a later element happens before an earlier one
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Delta(from, to) returns exactly the intervals whose (proc,
// seq) lies in the half-open vector range.
func TestPropDeltaMembership(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			const procs = 3
			s := NewStore(procs)
			counts := vc.New(procs)
			for p := 0; p < procs; p++ {
				n := int32(r.Intn(5))
				counts[p] = n
				for seq := int32(1); seq <= n; seq++ {
					ts := vc.New(procs)
					ts[p] = seq
					s.Publish(mkInterval(p, seq, ts, int(seq)))
				}
			}
			from := vc.New(procs)
			to := vc.New(procs)
			for p := 0; p < procs; p++ {
				from[p] = int32(r.Intn(int(counts[p]) + 1))
				to[p] = from[p] + int32(r.Intn(int(counts[p]-from[p])+1))
			}
			args[0] = reflect.ValueOf(s)
			args[1] = reflect.ValueOf(from)
			args[2] = reflect.ValueOf(to)
		},
	}
	f := func(s *Store, from, to vc.Time) bool {
		delta := s.Delta(from, to)
		want := 0
		for p := range from {
			want += int(to[p] - from[p])
		}
		if len(delta) != want {
			return false
		}
		for _, iv := range delta {
			p := iv.ID.Proc
			if iv.ID.Seq <= from[p] || iv.ID.Seq > to[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaDevsMatchesDelta builds random causal histories — processors
// publish intervals stamped with their vector time and merge each
// other's times — and requires DeltaDevsInto, given the processors whose
// entry in the target time exceeds the source's (and some whose entry
// does not), to return exactly DeltaInto's intervals in the same order,
// reusing its buffer.
func TestDeltaDevsMatchesDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got, want []*Interval
	for trial := 0; trial < 200; trial++ {
		procs := 1 + rng.Intn(6)
		s := NewStore(procs)
		vts := make([]vc.Time, procs)
		for p := range vts {
			vts[p] = vc.New(procs)
		}
		var seen []vc.Time // every time some processor held, in order
		for step := 0; step < 40; step++ {
			p := rng.Intn(procs)
			if q := rng.Intn(procs); rng.Intn(3) == 0 {
				vts[p].Merge(vts[q])
			} else {
				seq := vts[p].Tick(p)
				s.Publish(mkInterval(p, seq, vts[p].Clone(), rng.Intn(8)))
			}
			seen = append(seen, vts[p].Clone())
		}
		for k := 0; k < 10; k++ {
			from := seen[rng.Intn(len(seen))].Clone()
			to := from.Clone()
			to.Merge(seen[rng.Intn(len(seen))])
			var devs, seqs []int32
			for p := range to {
				if to[p] > from[p] || rng.Intn(4) == 0 {
					devs = append(devs, int32(p))
					seqs = append(seqs, to[p])
				}
			}
			want = s.DeltaInto(from, to, want)
			got = s.DeltaDevsInto(from, devs, seqs, got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: from %v to %v: DeltaDevsInto %v, DeltaInto %v", trial, from, to, ids(got), ids(want))
			}
		}
	}
}

func ids(ivs []*Interval) []vc.IntervalID {
	out := make([]vc.IntervalID, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.ID
	}
	return out
}

// TestUnitLogIndexGrowsAndSnapshotsStay covers the slice-backed per-unit
// index: a unit past what Reserve sized reads as never written, Publish
// grows the index for it, and a snapshot taken before later appends —
// including appends that move the index itself — still reads what it
// read.
func TestUnitLogIndexGrowsAndSnapshotsStay(t *testing.T) {
	s := NewStore(2)
	if got := s.UnitLog(5); got != nil {
		t.Fatalf("UnitLog of an unreserved unit = %v, want nil", got)
	}
	s.Reserve(4)
	if got := s.UnitLog(3); len(got) != 0 {
		t.Fatalf("UnitLog of a reserved, unwritten unit = %v", got)
	}
	first := mkInterval(0, 1, vc.Time{1, 0}, 3)
	s.Publish(first)
	snap := s.UnitLog(3)
	var published []*Interval
	for seq := int32(2); seq <= 40; seq++ {
		// Unit 3 again (its list reallocates) and a unit past the end
		// (the index reallocates).
		iv := mkInterval(0, seq, vc.Time{seq, 0}, 3, 100+int(seq))
		s.Publish(iv)
		published = append(published, iv)
	}
	if len(snap) != 1 || snap[0] != first {
		t.Fatalf("snapshot changed under later publishes: %v", snap)
	}
	if got := s.UnitLog(3); len(got) != 40 || got[0] != first || got[39] != published[38] {
		t.Fatalf("UnitLog(3) has %d entries, want 40 in publish order", len(got))
	}
	if got := s.UnitLog(140); len(got) != 1 || got[0] != published[38] {
		t.Fatalf("UnitLog(140) = %v", got)
	}
	if got := s.UnitLog(141); got != nil {
		t.Fatalf("UnitLog past the grown index = %v, want nil", got)
	}
}

// TestStoreRecordBuildsWhatMakeIntervalBuilds compares the store's
// carving constructor with the copying one field for field (unsorted
// diffs included), and checks that neither aliases the caller's buffers,
// that the cached causal key and notice size are the stamp's, that
// Record publishes what it built, and that a reset store records its
// next intervals, records and lists, without allocating.
func TestStoreRecordBuildsWhatMakeIntervalBuilds(t *testing.T) {
	ts := vc.DenseStamp(vc.Time{2, 5, 0})
	id := vc.IntervalID{Proc: 1, Seq: 1}
	units := []int{9, 4, 7}
	diffs := mkInterval(1, 5, vc.Time{2, 5, 0}, 9, 4, 7).Diffs // sorted: 4 7 9
	diffs[0], diffs[2] = diffs[2], diffs[0]                    // 9 7 4
	s := NewStore(3)
	want := MakeInterval(id, ts, units, diffs)
	got := s.Record(id, ts, units, diffs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store-built interval %+v, copy-built %+v", got, want)
	}
	if s.Get(1, 1) != got || len(s.UnitLog(7)) != 1 || s.UnitLog(7)[0] != got {
		t.Fatal("Record did not publish the interval it built")
	}
	if got.Diffs[0].Page != 4 || got.Diffs[2].Page != 9 {
		t.Fatalf("diffs not sorted by page: %v", got.Diffs)
	}
	units[0], diffs[0].Page = -1, -1
	if got.Units[0] != 9 || got.Diffs[2].Page != 9 {
		t.Fatal("the interval aliases its caller's buffers")
	}
	if sum, _, _ := got.CausalKey(); sum != 7 || got.NoticeBytes() != 8+4*3+4*3 {
		t.Fatalf("cached key %d / notice bytes %d, want 7 / 32", sum, got.NoticeBytes())
	}
	units[0], diffs[0].Page = 9, 9
	s.Reset()
	if s.UnitLog(7) != nil {
		t.Fatalf("a reset store still lists %v", s.UnitLog(7))
	}
	if n := testing.AllocsPerRun(50, func() {
		s.Reset()
		for seq := int32(1); seq <= 8; seq++ {
			s.Record(vc.IntervalID{Proc: 1, Seq: seq}, ts, units, diffs)
		}
	}); n != 0 {
		t.Errorf("8 intervals in a reset store: %v allocations, want 0", n)
	}
}

// TestUnitLogSnapshotStable publishes into a few units from one
// goroutine, so that their lists move into bigger arena pieces again
// and again, while readers iterate the UnitLog snapshots they hold. A
// held snapshot must keep reading what it read (a later one extends
// it), and none of it may be written again: the race detector sees any
// write into a piece a reader holds.
func TestUnitLogSnapshotStable(t *testing.T) {
	const procs, units, perProc, readers = 4, 3, 600, 3
	s := NewStore(procs)
	s.Reserve(units)
	ts := vc.DenseStamp(vc.Time{1, 0, 0, 0})
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			var held [][]*Interval
			check := func() error {
				last := s.UnitLog(u)
				for _, snap := range held {
					if len(snap) > len(last) {
						return fmt.Errorf("unit %d: a snapshot of %d entries outgrew the log's %d", u, len(snap), len(last))
					}
					for i, iv := range snap {
						if iv != last[i] || iv.Units[0] != u {
							return fmt.Errorf("unit %d: entry %d of a held snapshot changed", u, i)
						}
					}
				}
				if len(held) < 64 {
					held = append(held, last)
				} else {
					held[len(last)%64] = last
				}
				return nil
			}
			for {
				select {
				case <-done:
					errs <- check()
					return
				default:
				}
				if err := check(); err != nil {
					errs <- err
					<-done
					return
				}
			}
		}(r % units)
	}
	for seq := int32(1); seq <= perProc; seq++ {
		for p := 0; p < procs; p++ {
			s.Record(vc.IntervalID{Proc: p, Seq: seq}, ts, []int{(p + int(seq)) % units}, nil)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.UnitLog(0)) + len(s.UnitLog(1)) + len(s.UnitLog(2)); n != procs*perProc {
		t.Fatalf("the unit logs hold %d intervals, want %d", n, procs*perProc)
	}
}
