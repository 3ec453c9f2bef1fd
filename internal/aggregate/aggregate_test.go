package aggregate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTrackerOrderAndDedup(t *testing.T) {
	tr := NewTracker()
	for _, p := range []int{5, 3, 5, 9, 3, 1} {
		tr.Touch(p)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Take()
	if !reflect.DeepEqual(got, []int{5, 3, 9, 1}) {
		t.Fatalf("Take = %v", got)
	}
	if tr.Len() != 0 {
		t.Fatal("Take must reset")
	}
	tr.Touch(5)
	if got := tr.Take(); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("post-reset Take = %v", got)
	}
}

// numGroups is the number of groups in the partition.
func numGroups(g *Groups) int {
	return (len(g.pages) + g.maxPages - 1) / g.maxPages
}

func TestNewDefaults(t *testing.T) {
	if New(0).maxPages != DefaultMaxPages {
		t.Fatal("default max pages")
	}
	if New(2).maxPages != 2 {
		t.Fatal("explicit max pages")
	}
}

func TestRebuildChunksInAccessOrder(t *testing.T) {
	g := New(2)
	g.Rebuild([]int{7, 1, 9, 4, 2})
	if numGroups(g) != 3 || g.Pages() != 5 {
		t.Fatalf("groups=%d pages=%d", numGroups(g), g.Pages())
	}
	if !reflect.DeepEqual(g.GroupOf(7), []int{7, 1}) {
		t.Fatalf("GroupOf(7) = %v", g.GroupOf(7))
	}
	if !reflect.DeepEqual(g.GroupOf(1), []int{7, 1}) {
		t.Fatalf("GroupOf(1) = %v", g.GroupOf(1))
	}
	if !reflect.DeepEqual(g.GroupOf(2), []int{2}) {
		t.Fatalf("GroupOf(2) = %v (trailing partial group)", g.GroupOf(2))
	}
	if g.GroupOf(99) != nil {
		t.Fatal("unaccessed page must be ungrouped")
	}
}

func TestRebuildAllowsNonContiguousPages(t *testing.T) {
	g := New(4)
	g.Rebuild([]int{100, 3, 77, 9})
	if !reflect.DeepEqual(g.GroupOf(77), []int{100, 3, 77, 9}) {
		t.Fatalf("GroupOf = %v", g.GroupOf(77))
	}
}

func TestRebuildReplacesOldGroups(t *testing.T) {
	g := New(2)
	g.Rebuild([]int{1, 2})
	g.Rebuild([]int{3})
	if g.GroupOf(1) != nil || g.GroupOf(2) != nil {
		t.Fatal("old groups must dissolve (pattern change)")
	}
	if !reflect.DeepEqual(g.GroupOf(3), []int{3}) {
		t.Fatal("new group missing")
	}
}

func TestRebuildEmptyDissolvesEverything(t *testing.T) {
	g := New(2)
	g.Rebuild([]int{1, 2, 3})
	g.Rebuild(nil)
	if numGroups(g) != 0 || g.Pages() != 0 || g.GroupOf(1) != nil {
		t.Fatal("empty rebuild must dissolve all groups")
	}
}

func TestRebuildPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Rebuild([]int{1, 1})
}

// Property: Rebuild produces a partition — every accessed page is in
// exactly one group, groups are disjoint, sized within [1, MaxPages],
// and the concatenation of groups equals the accessed order.
func TestPropRebuildIsPartition(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(30)
			perm := r.Perm(1000)[:n]
			args[0] = reflect.ValueOf(perm)
			args[1] = reflect.ValueOf(1 + r.Intn(6))
		},
	}
	f := func(accessed []int, maxPages int) bool {
		g := New(maxPages)
		g.Rebuild(accessed)
		var concat []int
		seen := make(map[int]int)
		for _, p := range accessed {
			grp := g.GroupOf(p)
			if grp == nil || len(grp) == 0 || len(grp) > maxPages {
				return false
			}
			found := false
			for _, q := range grp {
				if q == p {
					found = true
				}
			}
			if !found {
				return false
			}
			seen[p]++
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// concatenation preserves access order
		concat = concat[:0]
		done := make(map[int]bool)
		for _, p := range accessed {
			if done[p] {
				continue
			}
			for _, q := range g.GroupOf(p) {
				concat = append(concat, q)
				done[q] = true
			}
		}
		if len(concat) != len(accessed) {
			return false
		}
		for i := range concat {
			if concat[i] != accessed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// rebuildMembers is Rebuild as it was before the partition kept one copy
// of the accessed list, kept as the oracle for Rebuild and GroupOf: one
// exactly sized slice per group, and each page mapped to its group.
func rebuildMembers(accessed []int, maxPages int) (members [][]int, groupOf map[int]int) {
	groupOf = make(map[int]int)
	for start := 0; start < len(accessed); start += maxPages {
		end := min(start+maxPages, len(accessed))
		grp := make([]int, end-start)
		copy(grp, accessed[start:end])
		for _, p := range grp {
			groupOf[p] = len(members)
		}
		members = append(members, grp)
	}
	return members, groupOf
}

// TestRebuildMatchesMembersOracle rebuilds one partition, and one tracker
// feeding it, over many random access lists in turn, and requires every
// page's group to be the oracle's, pages outside the list to be
// ungrouped, and a group to be unaffected by appends to it.
func TestRebuildMatchesMembersOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, maxPages := range []int{1, 2, 3, 4, 7} {
		g, tr := New(maxPages), NewTracker()
		for round := 0; round < 200; round++ {
			perm := r.Perm(64)[:r.Intn(40)]
			for i, p := range perm {
				tr.Touch(p)
				tr.Touch(perm[r.Intn(i+1)]) // a repeat, dropped
			}
			g.Rebuild(tr.Take())
			members, groupOf := rebuildMembers(perm, maxPages)
			if g.Pages() != len(groupOf) {
				t.Fatalf("max %d round %d: %d grouped pages, oracle %d", maxPages, round, g.Pages(), len(groupOf))
			}
			for p := 0; p < 64; p++ {
				id, ok := groupOf[p]
				got := g.GroupOf(p)
				if !ok {
					if got != nil {
						t.Fatalf("max %d round %d: page %d grouped as %v, oracle ungrouped", maxPages, round, p, got)
					}
					continue
				}
				if !reflect.DeepEqual(got, members[id]) {
					t.Fatalf("max %d round %d: GroupOf(%d) = %v, oracle %v", maxPages, round, p, got, members[id])
				}
				if cap(got) != len(got) {
					t.Fatalf("max %d round %d: GroupOf(%d) has spare capacity %d", maxPages, round, p, cap(got)-len(got))
				}
			}
		}
	}
}

// TestAllocBudgetSteadyState pins the dynamic-aggregation path of every
// fault and synchronization at zero allocations once the tracker and the
// partition have grown to the access list's size.
func TestAllocBudgetSteadyState(t *testing.T) {
	accessed := rand.New(rand.NewSource(2)).Perm(1024)[:64]
	g, tr := New(DefaultMaxPages), NewTracker()
	interval := func() {
		for _, p := range accessed {
			tr.Touch(p)
			_ = g.GroupOf(p)
		}
		g.Rebuild(tr.Take())
	}
	interval()
	if n := testing.AllocsPerRun(100, interval); n != 0 {
		t.Errorf("Touch/GroupOf/Take/Rebuild over %d pages: %v allocs/op, want 0", len(accessed), n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.Reset()
		g.Rebuild(nil)
		interval()
	}); n != 0 {
		t.Errorf("an interval after a tracker Reset and an empty Rebuild: %v allocs/op, want 0", n)
	}
}
