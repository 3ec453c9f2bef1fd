package mem

import "testing"

// TestAllocBudgetDiffPath pins the twin/diff hot path's steady-state
// allocation budget:
//
//   - re-twinning into a recycled buffer: 0 allocs
//   - encoding an unchanged page: 0 allocs (the common barrier case —
//     a twin taken, nothing written)
//   - encoding a dirty page: 0 (words and run list are carved from the
//     scratch's slabs; a chunk allocation every few hundred diffs
//     rounds to nothing)
//   - applying a diff: 0 allocs
//   - reconstructing a full-page image into caller arenas: 0 allocs
func TestAllocBudgetDiffPath(t *testing.T) {
	page := make([]byte, PageSize)
	var scr DiffScratch
	twin := MakeTwin(page)

	if n := testing.AllocsPerRun(100, func() {
		twin = MakeTwinInto(twin, page)
	}); n != 0 {
		t.Errorf("MakeTwinInto (recycled): %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		if d := EncodeDiffInto(&scr, twin, page); !d.Empty() {
			t.Fatal("clean page produced a non-empty diff")
		}
	}); n != 0 {
		t.Errorf("EncodeDiffInto (clean page): %v allocs/op, want 0", n)
	}

	// Dirty the page: two runs' worth of modified words.
	for _, w := range []int{0, 1, 2, 100, 101} {
		putWordAt(page, w, 0xdeadbeef)
	}
	var d Diff
	if n := testing.AllocsPerRun(100, func() {
		d = EncodeDiffInto(&scr, twin, page)
	}); n != 0 {
		t.Errorf("EncodeDiffInto (dirty page): %v allocs/op, want 0 (slab-carved)", n)
	}

	dst := make([]byte, PageSize)
	if n := testing.AllocsPerRun(100, func() {
		d.Apply(dst)
	}); n != 0 {
		t.Errorf("Diff.Apply: %v allocs/op, want 0", n)
	}

	words := make([]uint64, WordsPerPage)
	runs := make([]Run, 0, 1)
	if n := testing.AllocsPerRun(100, func() {
		_ = FullPageDiffInto(words, runs, page)
	}); n != 0 {
		t.Errorf("FullPageDiffInto (caller arenas): %v allocs/op, want 0", n)
	}
}

// TestSlabTakeAndRewind covers the exported slab: disjoint full-capacity
// slices, one allocation per chunk, a list longer than a chunk on its
// own, and no allocation at all after Rewind.
func TestSlabTakeAndRewind(t *testing.T) {
	var s Slab[int]
	a, b := s.Take(3), s.Take(5)
	if len(a) != 3 || cap(a) != 3 || len(b) != 5 || cap(b) != 5 {
		t.Fatalf("Take(3), Take(5) = len/cap %d/%d, %d/%d", len(a), cap(a), len(b), cap(b))
	}
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	if a[2] != 1 || b[0] != 2 || &a[:cap(a)][2] == &b[0] {
		t.Fatal("two takes share storage")
	}
	if got := s.Take(0); len(got) != 0 {
		t.Fatalf("Take(0) has length %d", len(got))
	}
	big := s.Take(10_000)
	if len(big) != 10_000 {
		t.Fatalf("Take(10000) has length %d", len(big))
	}
	fill := func() {
		for i := 0; i < 1000; i++ { // 8 KB of ints: four 2 KB chunks
			s.Take(1)[0] = i
		}
	}
	s.Rewind()
	fill()
	if n := testing.AllocsPerRun(20, func() {
		s.Rewind()
		fill()
	}); n != 0 {
		t.Errorf("refilling a rewound slab: %v allocations, want 0", n)
	}
}
