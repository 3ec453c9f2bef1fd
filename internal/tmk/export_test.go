package tmk

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/vc"
)

// SetBarrierHook installs fn to run on every processor's goroutine after
// it consumed a barrier grant: whether it took the held-unit walk, and
// how many entries the walk it took had (held units, or the episode's
// notices).
func (s *System) SetBarrierHook(fn func(p *Proc, heldWalk bool, visited int)) {
	s.barrierHook = fn
}

// CheckHeldList verifies processor p's held-list invariant: every unit
// that is not Invalid is listed exactly once, no unit is listed twice,
// and the marks say exactly what the list says. Call it on the
// processor's goroutine, or while no Run is in progress.
func (s *System) CheckHeldList(p int) error {
	pr := s.procs[p]
	listed := make([]int, s.numUnits)
	for _, u := range pr.held {
		listed[u]++
	}
	for u, n := range listed {
		switch {
		case n > 1:
			return fmt.Errorf("proc %d: unit %d is on the held list %d times", p, u, n)
		case n == 0 && pr.pt.State(u) != mem.Invalid:
			return fmt.Errorf("proc %d: unit %d is %v and not on the held list", p, u, pr.pt.State(u))
		case pr.heldMark[u] != (n == 1):
			return fmt.Errorf("proc %d: unit %d is listed %d times and marked %v", p, u, n, pr.heldMark[u])
		}
	}
	return nil
}

// WriteSetCheck is what CheckWriteSets saw over the runs since it was
// installed.
type WriteSetCheck struct {
	mu    sync.Mutex
	diffs int
	err   error
}

// Diffs returns how many page diffs were compared, and the first
// mismatch.
func (c *WriteSetCheck) Diffs() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diffs, c.err
}

// CheckWriteSets runs the twin-then-compare write detection beside the
// write sets in every later Run of s: each write fault also twins its
// unit's pages in full, and each interval close requires EncodeDiffInto
// of every page against its twin to equal the page's write-set diff, run
// for run. Call it before Run.
func (s *System) CheckWriteSets() *WriteSetCheck {
	c := &WriteSetCheck{}
	scr := make([]mem.DiffScratch, s.cfg.Procs) // one per processor goroutine
	s.twinHook = func(p *Proc, page int, twin mem.Twin, d mem.Diff) {
		want := mem.EncodeDiffInto(&scr[p.id], twin, p.rep.Page(page))
		same := reflect.DeepEqual(d.Runs(), want.Runs())
		scr[p.id].Rewind()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.diffs++
		if !same && c.err == nil {
			c.err = fmt.Errorf("processor %d page %d: write-set diff %v, twin diff %v", p.id, page, d.Runs(), want.Runs())
		}
	}
	return c
}

// Promoted returns how many pages of the last Run had every stretch of
// their write set saved, so that writes to them took the fast path.
func (s *System) Promoted() int {
	n := 0
	for _, p := range s.procs {
		n += p.nPromoted
	}
	return n
}

// ForceFullBarrierWalk makes every barrier grant of s's later Runs walk
// the episode's delta instead of the processor's held units.
func (s *System) ForceFullBarrierWalk() { s.tune.fullBarrierWalk = true }

// NewSystemMaxGroup is NewSystem with the §4 group bound at maxPages
// pages instead of aggregate.DefaultMaxPages, for ablating the bound.
func NewSystemMaxGroup(cfg Config, maxPages int) (*System, error) {
	return newSystem(cfg, tuning{groupPages: maxPages})
}

// NewSystemGateOpen is NewSystem with the adaptive protocol's contention
// gate held open, so that units switch on their writer signature alone,
// on any network.
func NewSystemGateOpen(cfg Config) (*System, error) {
	return newSystem(cfg, tuning{gate: gateOpen})
}

// HomeLogCheck keeps the home engine's earlier versioned log beside the
// interval store: every diff a home release flushes, stamped with its
// interval's causal key, and at every adaptive homeless→home handoff a
// seed per page — the unit's image at the switch barrier's merged time,
// rebuilt from the store's history — that every later fetcher sees.
// Every page a home fetch refreshes must then hold, byte for byte, the
// image this log gives at the fetcher's vector time: the log applies
// every covered write in causal order over a zeroed page, the fetch
// applies only the writes the fetcher missed over its own copy. The two
// agree for data-race-free programs, whose concurrent intervals never
// write the same word.
type HomeLogCheck struct {
	sys *System

	mu       sync.Mutex
	log      map[int][]flushEntry // page -> flushed diffs and seeds, in arrival order
	images   int
	handoffs int
	err      error
}

// flushEntry is one logged page diff with its interval's causal key
// (sum, proc, seq). A seed carries proc -1, so that it sorts before the
// same-sum entries its image already contains.
type flushEntry struct {
	proc int
	seq  int32
	sum  int64
	seed bool
	d    mem.Diff
}

// CheckHomeImages installs the log beside s's next Run. Call it before
// Run, once per Run.
func (s *System) CheckHomeImages() *HomeLogCheck {
	c := &HomeLogCheck{sys: s, log: make(map[int][]flushEntry)}
	s.homeCheck = c
	return c
}

// Counts returns how many page images and handoffs were checked, and
// the first image that differed from the log's.
func (c *HomeLogCheck) Counts() (images, handoffs int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.images, c.handoffs, c.err
}

// flushed logs one flushed diff under the releasing interval's key: p's
// vector time has just ticked for the closing interval.
func (c *HomeLogCheck) flushed(p *Proc, pd lrc.PageDiff) {
	e := flushEntry{proc: p.id, seq: p.vt[p.id], sum: timeSum(p.vt), d: pd.D}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log[pd.Page] = append(c.log[pd.Page], e)
}

// handoff seeds the log with unit u's pages at merged: the diffs of
// every interval merged covers that wrote the unit, applied in the
// store delta's causal order.
func (c *HomeLogCheck) handoff(u int, merged vc.Time) {
	history := c.sys.store.Delta(vc.New(len(merged)), merged)
	up := c.sys.cfg.UnitPages
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handoffs++
	for pg := u * up; pg < (u+1)*up; pg++ {
		buf := make([]byte, mem.PageSize)
		for _, iv := range history {
			if d, ok := iv.Diff(pg); ok {
				d.Apply(buf)
			}
		}
		c.log[pg] = append(c.log[pg], flushEntry{proc: -1, sum: timeSum(merged), seed: true, d: mem.FullPageDiff(buf)})
	}
}

// image rebuilds page at vt from the log — the seeds and the flushes vt
// covers, stably sorted by causal key, applied over a zeroed page — and
// compares it with got, the fetcher's page after the fetch.
func (c *HomeLogCheck) image(page int, vt vc.Time, got []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var covered []flushEntry
	for _, e := range c.log[page] {
		if e.seed || vt.KnowsInterval(e.proc, e.seq) {
			covered = append(covered, e)
		}
	}
	slices.SortStableFunc(covered, func(a, b flushEntry) int {
		return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.proc, b.proc), cmp.Compare(a.seq, b.seq))
	})
	want := make([]byte, mem.PageSize)
	for _, e := range covered {
		e.d.Apply(want)
	}
	c.images++
	if c.err == nil && !bytes.Equal(got, want) {
		c.err = fmt.Errorf("page %d at %v: the fetcher's page differs from the flush log's image (%d logged entries, %d covered)",
			page, vt, len(c.log[page]), len(covered))
	}
}

func timeSum(t vc.Time) int64 {
	var sum int64
	for _, v := range t {
		sum += int64(v)
	}
	return sum
}

// UnitEvidence is one written unit's writer evidence for one barrier
// episode, as the decision pass reads it from the unit's run of the
// episode index.
type UnitEvidence struct {
	Unit       int
	Writer     int // the sole writer, or -1 for several
	First      int
	Dominant   int
	Last       int
	Concurrent int
	Intervals  int
}

// EpisodeDeltas rebuilds every barrier episode's delta from the barrier
// log: the store's causally sorted intervals between the previous
// episode's merged time and this one's. Call it after a Collect run.
func (s *System) EpisodeDeltas() [][]*lrc.Interval {
	prev := vc.New(s.cfg.Procs)
	var deltas [][]*lrc.Interval
	for _, merged := range s.barrierLog {
		deltas = append(deltas, s.store.Delta(prev, merged))
		prev = merged
	}
	return deltas
}

// IndexEvidence indexes delta as a deciding barrier indexes its
// episode's delta, and returns every written unit's evidence in
// ascending unit order. It overwrites the episode index: call it after
// Run.
func (s *System) IndexEvidence(delta []*lrc.Interval) []UnitEvidence {
	if s.procScratch == nil {
		s.procScratch = make([]int32, s.cfg.Procs)
	}
	clear(s.epWriter)
	s.indexEpisode(delta, 1, true)
	slices.Sort(s.epUnits)
	var out []UnitEvidence
	for _, u := range s.epUnits {
		e := s.epWriter[u]
		ivs := s.epRuns[e.lo : e.lo+e.n]
		out = append(out, UnitEvidence{
			Unit:       int(u),
			Writer:     int(e.writer),
			First:      ivs[0].ID.Proc,
			Dominant:   dominantWriter(ivs, s.procScratch),
			Last:       ivs[len(ivs)-1].ID.Proc,
			Concurrent: concurrentWriters(ivs, s.procScratch),
			Intervals:  len(ivs),
		})
	}
	return out
}

// MissingListCheck keeps the eager per-unit missing-write lists the
// engine once built at every acquire beside the lists missingInto
// rebuilds from the store log at every fault: each processor appends,
// per unit and in delta order, every interval of every delta it consumes
// that it did not know, and a fetch of the unit takes the whole list.
// The two must hold the same intervals in the order a fetch consumes
// them: grouped by writer (planDiffs), each writer's in sequence order.
// Across writers the log is in publish order, which follows the host's
// schedule, and the delta in causal order; neither is read.
type MissingListCheck struct {
	lists []map[int][]*lrc.Interval // per processor: unit -> learned, unfetched intervals

	mu      sync.Mutex
	fetches int
	err     error
}

// CheckMissingLists installs the eager lists beside s's next Run. Call it
// before Run, once per Run.
func (s *System) CheckMissingLists() *MissingListCheck {
	c := &MissingListCheck{lists: make([]map[int][]*lrc.Interval, s.cfg.Procs)}
	for p := range c.lists {
		c.lists[p] = make(map[int][]*lrc.Interval)
	}
	s.noticeCheck = c
	return c
}

// Counts returns how many unit lists were compared, and the first that
// differed.
func (c *MissingListCheck) Counts() (fetches int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fetches, c.err
}

// delta runs on p's goroutine, which alone touches p's lists.
func (c *MissingListCheck) delta(p *Proc, ivs []*lrc.Interval) {
	lists := c.lists[p.id]
	for _, iv := range ivs {
		if p.vt.KnowsInterval(iv.ID.Proc, iv.ID.Seq) {
			continue
		}
		for _, u := range iv.Units {
			lists[u] = append(lists[u], iv)
		}
	}
}

func (c *MissingListCheck) fetched(p *Proc, u int, miss []*lrc.Interval) {
	want := c.lists[p.id][u]
	delete(c.lists[p.id], u)
	got := slices.Clone(miss)
	byWriter := func(a, b *lrc.Interval) int { return cmp.Compare(a.ID.Proc, b.ID.Proc) }
	slices.SortStableFunc(got, byWriter)
	slices.SortStableFunc(want, byWriter)
	same := slices.Equal(got, want)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetches++
	if !same && c.err == nil {
		c.err = fmt.Errorf("processor %d unit %d: the store log gives %v, the eager list %v", p.id, u, ivIDs(got), ivIDs(want))
	}
}

func ivIDs(ivs []*lrc.Interval) []vc.IntervalID {
	ids := make([]vc.IntervalID, len(ivs))
	for i, iv := range ivs {
		ids[i] = iv.ID
	}
	return ids
}
