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
}
