package vc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// stampScenario drives a Tracked register and a plain dense Time shadow
// of length n through steps random ticks, stamp merges, dense merges and
// rebases, each choice drawn from intn, checking that every observable
// of the sparse layer matches the dense model at each step.
func stampScenario(t *testing.T, n, steps int, intn func(int) int) {
	t.Helper()
	var arena StampArena
	tr := NewTracked(n)
	shadow := New(n)
	epochSeq := 0

	// Remember a few snapshots to cross-check Covers/Concurrent.
	type snap struct {
		s Stamp
		d Time
	}
	var snaps []snap

	for step := 0; step < steps; step++ {
		switch intn(5) {
		case 0: // tick a random proc
			p := intn(n)
			tr.Tick(p)
			shadow.Tick(p)
		case 1: // merge a random sparse stamp at the current epoch
			nd := intn(4)
			procs := make([]int32, 0, nd)
			seqs := make([]int32, 0, nd)
			for p := 0; p < n && len(procs) < nd; p++ {
				if intn(n) < nd {
					procs = append(procs, int32(p))
					seqs = append(seqs, tr.Base().Entry(p)+int32(1+intn(3)))
				}
			}
			s := SparseStamp(tr.Base(), n, procs, seqs)
			tr.MergeStamp(s)
			shadow.Merge(s.Dense(nil))
		case 2: // merge a dense stamp
			d := New(n)
			for p := range d {
				d[p] = shadow[p] + int32(intn(2))
			}
			tr.MergeStamp(DenseStamp(d))
			shadow.Merge(d)
		case 3: // barrier: rebase both onto the merged time
			epochSeq++
			merged := shadow.Clone()
			tr.Rebase(NewEpoch(epochSeq, merged))
			shadow.CopyFrom(merged)
		case 4: // merge a dense time entrywise
			d := New(n)
			for p := range d {
				d[p] = max(0, shadow[p]+int32(intn(3))-1)
			}
			tr.MergeTime(d)
			shadow.Merge(d)
		}

		if !tr.T.Equal(shadow) {
			t.Fatalf("step %d: register %v != shadow %v", step, tr.T, shadow)
		}
		for p := 0; p < n; p++ {
			if dev := shadow[p] > tr.Base().Entry(p); tr.mark[p] != dev {
				t.Fatalf("step %d: processor %d deviates %v, the register says %v", step, p, dev, tr.mark[p])
			}
		}
		s := tr.Snapshot(&arena)
		var sum int64
		for p := 0; p < n; p++ {
			if got, want := s.Entry(p), shadow[p]; got != want {
				t.Fatalf("step %d: Entry(%d) = %d, want %d", step, p, got, want)
			}
			sum += int64(shadow[p])
		}
		if s.Sum() != sum {
			t.Fatalf("step %d: Sum = %d, want %d", step, s.Sum(), sum)
		}
		if d := s.Dense(nil); !d.Equal(shadow) {
			t.Fatalf("step %d: Dense %v != shadow %v", step, d, shadow)
		}
		// Deviations must advance past the base (the invariant every
		// fast path relies on).
		if s.Base() != nil {
			procs, seqs := s.Deviations()
			for i, p := range procs {
				if seqs[i] <= s.Base().Entry(int(p)) {
					t.Fatalf("step %d: deviation %d not past base", step, p)
				}
			}
		}

		// Cross-check ordering against earlier snapshots.
		d := shadow.Clone()
		for _, old := range snaps {
			if got, want := s.Covers(old.s), d.Covers(old.d); got != want {
				t.Fatalf("step %d: Covers = %v, dense says %v\n s=%v\n u=%v",
					step, got, want, d, old.d)
			}
			if got, want := old.s.Covers(s), old.d.Covers(d); got != want {
				t.Fatalf("step %d: reverse Covers = %v, dense says %v", step, got, want)
			}
			if got, want := s.Concurrent(old.s), d.Concurrent(old.d); got != want {
				t.Fatalf("step %d: Concurrent = %v, dense says %v", step, got, want)
			}
		}
		if len(snaps) < 8 && intn(10) == 0 {
			snaps = append(snaps, snap{s: s, d: d})
		}
	}
}

func TestTrackedMatchesDenseModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		t.Run(fmt.Sprint(trial), func(t *testing.T) { stampScenario(t, 16, 200, rng.Intn) })
	}
}

// FuzzTrackedMatchesDense runs stampScenario on a schedule read from the
// fuzz input: the register length, then one byte per choice, for as many
// steps as the input has bytes (choices past its end read as zero).
func FuzzTrackedMatchesDense(f *testing.F) {
	f.Add(uint8(16), []byte{0, 1, 2, 3, 4, 0, 9, 1, 2, 2, 3, 4, 4, 1, 0, 0})
	// A dense merge that raises every entry, a rebase, and another.
	f.Add(uint8(3), []byte{4, 2, 2, 2, 2, 3, 4, 2, 0, 2, 1, 0, 5})
	// Sixty-four raised entries: the snapshot falls back to a dense copy.
	f.Add(uint8(63), append(append([]byte{4}, bytes.Repeat([]byte{2}, 64)...), 0, 7, 1, 3, 5, 2))
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := 1 + int(size)%64
		next := 0
		intn := func(k int) int {
			if next >= len(data) {
				return 0
			}
			next++
			return int(data[next-1]) % k
		}
		stampScenario(t, n, len(data), intn)
	})
}

func TestStampEntryOffList(t *testing.T) {
	base := NewEpoch(1, Time{3, 1, 4, 1})
	s := SparseStamp(base, 4, []int32{0, 2}, []int32{5, 6})
	wants := []int32{5, 1, 6, 1}
	for p, w := range wants {
		if got := s.Entry(p); got != w {
			t.Fatalf("Entry(%d) = %d, want %d", p, got, w)
		}
	}
	if s.Sum() != 5+1+6+1 {
		t.Fatalf("Sum = %d, want 13", s.Sum())
	}
}

// Snapshots taken before later carves and a Tracked mutation must keep
// their values: the arena never reallocates a block, and Snapshot copies
// the register's entries out.
func TestStampArenaStability(t *testing.T) {
	var arena StampArena
	tr := NewTracked(8)
	tr.Rebase(NewEpoch(1, Time{1, 1, 1, 1, 1, 1, 1, 1}))

	var stamps []Stamp
	var wants []Time
	for i := 0; i < 3000; i++ {
		tr.Tick(i % 8)
		stamps = append(stamps, tr.Snapshot(&arena))
		wants = append(wants, tr.T.Clone())
	}
	for i, s := range stamps {
		if d := s.Dense(nil); !d.Equal(wants[i]) {
			t.Fatalf("stamp %d corrupted: %v, want %v", i, d, wants[i])
		}
	}

	arena.Reset()
	if got := arena.Carve(4); cap(got) < 4 || len(got) != 0 {
		t.Fatalf("post-Reset carve: len=%d cap=%d", len(got), cap(got))
	}
}

// A deviation set that fragments toward the vector length must flip the
// snapshot to the dense layout (and still read identically).
func TestSnapshotDenseFallback(t *testing.T) {
	var arena StampArena
	const n = 64
	tr := NewTracked(n)
	for p := 0; p < n/2; p++ {
		tr.Tick(p)
	}
	s := tr.Snapshot(&arena)
	if s.Base() != nil {
		t.Fatalf("snapshot with %d/%d deviations should be dense", n/2, n)
	}
	if !s.Dense(nil).Equal(tr.T) {
		t.Fatal("dense-fallback snapshot does not match register")
	}
}

// TestAllocBudgetSparseOps pins the sparse-clock hot paths at zero
// steady-state allocations at n=1024, mirroring the n=8 dense budget in
// alloc_test.go: epoch-local merges and covers touch only deviations,
// and snapshots carve from a pre-grown arena.
func TestAllocBudgetSparseOps(t *testing.T) {
	const n = 1024
	base := NewEpoch(3, func() Time {
		v := New(n)
		for i := range v {
			v[i] = 5
		}
		return v
	}())
	tr := NewTracked(n)
	tr.Rebase(base)
	tr.Tick(7)
	s := SparseStamp(base, n, []int32{7, 100, 900}, []int32{9, 8, 7})
	u := SparseStamp(base, n, []int32{100}, []int32{6})
	var arena StampArena
	// Warm the arena and the deviation set so the measured loop carves
	// and notes without growing anything.
	tr.MergeStamp(s)
	for i := 0; i < 4; i++ {
		_ = tr.Snapshot(&arena)
	}
	arena.Reset()

	cases := []struct {
		name string
		op   func()
	}{
		{"MergeStamp", func() { tr.MergeStamp(s) }},
		{"StampCovers", func() { _ = s.Covers(u) }},
		{"StampEntry", func() { _ = s.Entry(500) }},
		{"Snapshot", func() { arena.Reset(); _ = tr.Snapshot(&arena) }},
		{"Tick", func() { tr.Tick(7) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
}

// Benchmarks at n=1024, dense and sparse side by side: the dense ops are
// the reference engine mode's cost, the sparse ops what the default mode
// pays between barriers.
func benchTimes(n int) (a, b Time) {
	a, b = New(n), New(n)
	for i := range a {
		a[i] = int32(i % 7)
		b[i] = int32((i + 3) % 7)
	}
	return a, b
}

func BenchmarkMergeDense1024(b *testing.B) {
	x, y := benchTimes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkMergeStampSparse1024(b *testing.B) {
	base := NewEpoch(1, New(1024))
	tr := NewTracked(1024)
	tr.Rebase(base)
	s := SparseStamp(base, 1024, []int32{3, 500, 900}, []int32{2, 2, 2})
	tr.MergeStamp(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.MergeStamp(s)
	}
}

func BenchmarkCoversDense1024(b *testing.B) {
	x, y := benchTimes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Covers(y)
	}
}

func BenchmarkCoversSparse1024(b *testing.B) {
	base := NewEpoch(2, New(1024))
	s := SparseStamp(base, 1024, []int32{3, 500}, []int32{4, 4})
	u := SparseStamp(base, 1024, []int32{500}, []int32{3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Covers(u)
	}
}

func BenchmarkCopyFromDense1024(b *testing.B) {
	x, y := benchTimes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.CopyFrom(y)
	}
}

func BenchmarkSnapshotSparse1024(b *testing.B) {
	tr := NewTracked(1024)
	tr.Rebase(NewEpoch(1, New(1024)))
	tr.Tick(7)
	tr.Tick(400)
	var arena StampArena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		_ = tr.Snapshot(&arena)
	}
}
