// Package aggregate implements the paper's §4 dynamic aggregation
// algorithm: coalescing pages into page groups based on the access
// pattern observed in the previous interval.
//
// Each processor keeps its own Tracker (the pages it faulted on, in
// order) and Groups (the current page-group partition). At each
// synchronization the groups are rebuilt from the tracker: pages faulted
// on since the last synchronization are partitioned, in access order,
// into groups of at most MaxPages. Pages need not be contiguous. A page
// that was not accessed in the last interval belongs to no group and is
// fetched alone — this is how the algorithm "reverts to using pages" when
// the access pattern changes, at the cost of one interval of hysteresis.
package aggregate

// DefaultMaxPages bounds a page group at 4 pages (16 KB), the largest
// static consistency unit the paper evaluates.
const DefaultMaxPages = 4

// Tracker records the pages a processor faulted on during the current
// interval, de-duplicated, in first-access order.
type Tracker struct {
	order []int
	seen  map[int]bool
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{seen: make(map[int]bool)}
}

// Touch records an access fault on page.
func (t *Tracker) Touch(page int) {
	if !t.seen[page] {
		t.seen[page] = true
		t.order = append(t.order, page)
	}
}

// Len returns the number of distinct pages touched.
func (t *Tracker) Len() int { return len(t.order) }

// Take returns the access-ordered page list and resets the tracker.
func (t *Tracker) Take() []int {
	out := t.order
	t.order = nil
	t.seen = make(map[int]bool, len(out))
	return out
}

// Groups is one processor's current page-group partition.
type Groups struct {
	maxPages int
	members  [][]int     // group id -> pages
	groupOf  map[int]int // page -> group id
}

// New returns an empty partition with the given maximum group size.
// maxPages < 1 selects DefaultMaxPages.
func New(maxPages int) *Groups {
	if maxPages < 1 {
		maxPages = DefaultMaxPages
	}
	return &Groups{maxPages: maxPages, groupOf: make(map[int]int)}
}

// Rebuild replaces the partition: accessed (in access order, duplicates
// not allowed) is chunked into runs of at most MaxPages. An empty
// accessed list dissolves all groups.
func (g *Groups) Rebuild(accessed []int) {
	g.members = g.members[:0]
	clear(g.groupOf)
	for start := 0; start < len(accessed); start += g.maxPages {
		end := start + g.maxPages
		if end > len(accessed) {
			end = len(accessed)
		}
		id := len(g.members)
		grp := make([]int, end-start)
		copy(grp, accessed[start:end])
		g.members = append(g.members, grp)
		for _, p := range grp {
			if _, dup := g.groupOf[p]; dup {
				panic("aggregate: duplicate page in Rebuild input")
			}
			g.groupOf[p] = id
		}
	}
}

// GroupOf returns the pages fetched together with page (including page
// itself), or nil if the page is ungrouped (fetched alone). The returned
// slice must not be modified.
func (g *Groups) GroupOf(page int) []int {
	id, ok := g.groupOf[page]
	if !ok {
		return nil
	}
	return g.members[id]
}

// Pages returns the total number of grouped pages.
func (g *Groups) Pages() int { return len(g.groupOf) }
