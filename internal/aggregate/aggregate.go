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
// interval, de-duplicated, in first-access order. It keeps its storage
// across intervals and runs: steady-state tracking allocates nothing.
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

// Take returns the access-ordered page list and resets the tracker. The
// list is a view of the tracker's storage, valid until the next Touch.
func (t *Tracker) Take() []int {
	out := t.order
	t.Reset()
	return out
}

// Reset forgets every touched page and keeps the storage.
func (t *Tracker) Reset() {
	t.order = t.order[:0]
	clear(t.seen)
}

// Groups is one processor's current page-group partition.
type Groups struct {
	maxPages int
	pages    []int       // the accessed list; group id is its id-th run of maxPages pages
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
// accessed list dissolves all groups (and resets the partition for a
// new run). The partition keeps a copy of accessed, in storage it
// reuses from one rebuild to the next.
func (g *Groups) Rebuild(accessed []int) {
	g.pages = append(g.pages[:0], accessed...)
	clear(g.groupOf)
	for i, p := range g.pages {
		if _, dup := g.groupOf[p]; dup {
			panic("aggregate: duplicate page in Rebuild input")
		}
		g.groupOf[p] = i / g.maxPages
	}
}

// GroupOf returns the pages fetched together with page (including page
// itself), or nil if the page is ungrouped (fetched alone). The returned
// slice must not be modified, and is valid until the next Rebuild.
func (g *Groups) GroupOf(page int) []int {
	id, ok := g.groupOf[page]
	if !ok {
		return nil
	}
	lo := id * g.maxPages
	hi := min(lo+g.maxPages, len(g.pages))
	return g.pages[lo:hi:hi]
}

// Pages returns the total number of grouped pages.
func (g *Groups) Pages() int { return len(g.groupOf) }
