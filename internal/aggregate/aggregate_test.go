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
	if len(g.members) != 3 || g.Pages() != 5 {
		t.Fatalf("groups=%d pages=%d", len(g.members), g.Pages())
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
	if len(g.members) != 0 || g.Pages() != 0 || g.GroupOf(1) != nil {
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
