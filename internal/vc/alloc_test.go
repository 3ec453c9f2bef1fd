package vc

import (
	"slices"
	"testing"
)

// TestAllocBudgetOps pins the engine-hot vector operations at zero
// steady-state allocations: the inner loops clone timestamps into
// reusable scratch (CopyFrom/Zero) instead of allocating (Clone), and
// every comparison walks the vectors in place.
func TestAllocBudgetOps(t *testing.T) {
	a, b, dst := New(8), New(8), New(8)
	for i := range a {
		a[i] = int32(i)
		b[i] = int32(8 - i)
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"CopyFrom", func() { dst.CopyFrom(a) }},
		{"Zero", func() { dst.Zero() }},
		{"Merge", func() { dst.Merge(b) }},
		{"Covers", func() { _ = a.Covers(b) }},
		{"Equal", func() { _ = a.Equal(b) }},
		{"Tick", func() { dst.Tick(3) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestAllocBudgetStampArena pins the arena's block growth: blocks start
// at 256 entries and double to 4096, a carve larger than the next step
// takes a 4096 block, a carve above 4096 is its own allocation, every
// carved slice keeps its contents as later blocks are added, and after
// Reset the same carves allocate nothing.
func TestAllocBudgetStampArena(t *testing.T) {
	var seq []int
	for i := 0; i < 120; i++ {
		seq = append(seq, 40)
	}
	seq = append(seq, 3000, 5000)
	for i := 0; i < 10; i++ {
		seq = append(seq, 40)
	}

	var a StampArena
	var carved [][]int32
	for i, n := range seq {
		s := a.Carve(n)[:n]
		for j := range s {
			s[j] = int32(i<<16 | j)
		}
		carved = append(carved, s)
	}
	for i, s := range carved {
		for j, v := range s {
			if v != int32(i<<16|j) {
				t.Fatalf("carve %d (%d entries): entry %d reads %d after later carves", i, len(s), j, v)
			}
		}
	}
	var caps []int
	for _, b := range a.blocks {
		caps = append(caps, cap(b))
	}
	if want := []int{256, 512, 1024, 2048, 4096, 4096}; !slices.Equal(caps, want) {
		t.Errorf("block capacities %v, want %v", caps, want)
	}

	// A carve larger than the next doubling step skips to a full block.
	var b StampArena
	b.Carve(40)
	if s := b.Carve(3000); cap(s) != 3000 || len(b.blocks) != 2 || cap(b.blocks[1]) != stampArenaBlock {
		t.Errorf("carve of 3000 after the first block: cap %d, %d blocks", cap(s), len(b.blocks))
	}

	// The oversized carve is its own allocation by design; everything
	// else reuses the blocks.
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		for _, n := range seq {
			if n <= stampArenaBlock {
				a.Carve(n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("carves after Reset: %v allocs, want 0", allocs)
	}
}
