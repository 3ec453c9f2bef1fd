// Package lrc implements the lazy-release-consistency bookkeeping of the
// DSM: intervals, write notices, the global interval registry, and the
// causal ordering used to apply concurrent diffs.
//
// In LRC a processor's execution is divided into intervals by its
// synchronization operations. Closing an interval publishes (a) a write
// notice per page modified in the interval and (b) — in this engine,
// eagerly — the word-granularity diff of each such page. On an acquire,
// the acquirer learns of every interval covered by the releaser's vector
// time that it has not yet seen, and invalidates the noticed pages; the
// diffs themselves travel only on demand, at the next access fault.
package lrc

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/vc"
)

// PageDiff is the word-granularity diff of one 4 KB page.
type PageDiff struct {
	Page int
	D    mem.Diff
}

// Interval is one closed interval of one processor.
//
// Write detection and invalidation happen at *consistency-unit*
// granularity (1, 2, or 4 pages, per the experiment), while diffs stay
// word-granular within 4 KB pages — exactly the combination the paper
// studies: enlarging the unit enlarges what gets twinned, noticed,
// invalidated, and fetched, but a diff still carries only the words that
// actually changed.
type Interval struct {
	// ID names the interval (processor + per-processor sequence).
	ID vc.IntervalID
	// TS is the processor's vector time at the close of the interval
	// (including the interval's own tick) — a vc.Stamp, so a sparse-mode
	// engine stores an epoch base plus a few deviations instead of one
	// dense vector per interval. Its wire size (Len entries) and causal
	// key (Sum) are layout-independent.
	TS vc.Stamp
	// Units lists the consistency units written during the interval
	// (each unit appears once). The interval's write notices name
	// exactly these units.
	Units []int
	// Diffs holds the non-empty page diffs of the interval, ordered by
	// page number — the sorted order is the index: page lookups binary
	// search it and per-unit views are contiguous subslices, so the
	// engine's fetch path needs no per-interval map.
	Diffs []PageDiff

	// sum and noticeBytes cache TS.Sum() and the notices' wire size at
	// construction: a Stamp is 96 bytes and its accessors take it by
	// value, which the causal sort and every acquire's byte count would
	// otherwise copy once per comparison and per notice.
	sum         int64
	noticeBytes int
}

// pageIndex returns the position of page in the sorted Diffs, or
// (insertion point, false) if the page has no diff. A hand-rolled
// binary search: no closure, no allocation on the fault path.
func (iv *Interval) pageIndex(page int) (int, bool) {
	lo, hi := 0, len(iv.Diffs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv.Diffs[mid].Page < page {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(iv.Diffs) && iv.Diffs[lo].Page == page
}

// Diff returns the interval's diff for the given 4 KB page; ok is false
// if the page has no modifications in this interval.
func (iv *Interval) Diff(page int) (mem.Diff, bool) {
	if i, ok := iv.pageIndex(page); ok {
		return iv.Diffs[i].D, true
	}
	return mem.Diff{}, false
}

// DiffsInUnit returns the interval's page diffs that fall inside
// consistency unit u, where each unit spans unitPages pages. The result
// is a view into the interval's sorted diff list (callers must not
// modify it): unit pages are contiguous, so the matching diffs are one
// subslice and no per-call allocation happens.
func (iv *Interval) DiffsInUnit(u, unitPages int) []PageDiff {
	lo, _ := iv.pageIndex(u * unitPages)
	hi, _ := iv.pageIndex((u + 1) * unitPages)
	return iv.Diffs[lo:hi]
}

// NoticeBytes returns the wire size of the interval's write notices: the
// interval header (proc, seq, vector time) plus one unit id per notice.
func (iv *Interval) NoticeBytes() int { return iv.noticeBytes }

// CausalKey is a monotone linearization of the happens-before partial
// order: if a happens before b then a's vector-entry sum is strictly less
// than b's, so sorting by (sum, proc, seq) is a valid causal application
// order that is also deterministic for concurrent intervals (whose diffs
// touch disjoint words in race-free programs).
func (iv *Interval) CausalKey() (sum int64, proc int, seq int32) {
	return iv.sum, iv.ID.Proc, iv.ID.Seq
}

// causallyBefore reports whether a orders before b under CausalKey.
func causallyBefore(a, b *Interval) bool {
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	if a.ID.Proc != b.ID.Proc {
		return a.ID.Proc < b.ID.Proc
	}
	return a.ID.Seq < b.ID.Seq
}

// SortCausally orders intervals by CausalKey, a linear extension of
// happens-before. Binary-insertion sort over the precomputed keys: the
// inputs the engine builds are concatenations of per-processor runs
// that are each already causally ascending, so the scan is near-linear
// in practice and performs no allocation (no sort.Slice closure).
func SortCausally(ivs []*Interval) {
	for i := 1; i < len(ivs); i++ {
		iv := ivs[i]
		if !causallyBefore(iv, ivs[i-1]) {
			continue
		}
		// Binary search for iv's position in the sorted prefix.
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if causallyBefore(iv, ivs[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(ivs[lo+1:i+1], ivs[lo:i])
		ivs[lo] = iv
	}
}

// Store is the global registry of closed intervals. It models the
// per-node interval and diff storage TreadMarks keeps: a processor can
// only look up intervals it has provably heard about (covered by a vector
// time handed to it at a synchronization), so reading through the store
// never leaks information ahead of the protocol.
//
// Garbage collection of old intervals is deliberately omitted (runs are
// short; TreadMarks GC is orthogonal to the paper's study).
type Store struct {
	mu    sync.RWMutex
	byPid [][]*Interval // byPid[p][seq-1] = interval (p, seq)
	// byUnit[u] lists the published intervals that wrote unit u, in
	// publish order. Because a processor publishes before the
	// synchronization that announces the interval proceeds, and
	// barriers join every processor, the list is episode-monotone and
	// per-writer sequence-ordered. The sparse engine reconstructs
	// missing-write sets from this one global index at fault time
	// instead of appending every notice into every processor's
	// per-unit lists at acquire time (see tmk's missingInto). Indexed by
	// unit: Reserve sizes it, Publish grows it for a unit past the end.
	byUnit [][]*Interval
}

// NewStore returns an empty registry for n processors.
func NewStore(n int) *Store {
	return &Store{byPid: make([][]*Interval, n)}
}

// Reserve sizes the per-unit index for units consistency units, so that
// no Publish has to grow it under the write lock.
func (s *Store) Reserve(units int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growUnits(units)
}

// growUnits extends byUnit to at least n entries (write lock held). The
// per-unit lists move with their headers, so UnitLog snapshots taken
// earlier stay valid.
func (s *Store) growUnits(n int) {
	if n > len(s.byUnit) {
		s.byUnit = append(s.byUnit, make([][]*Interval, n-len(s.byUnit))...)
	}
}

// Publish registers a closed interval. The interval's sequence number
// must be the next one for its processor.
func (s *Store) Publish(iv *Interval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := iv.ID.Proc
	if int(iv.ID.Seq) != len(s.byPid[p])+1 {
		panic("lrc: out-of-order interval publish")
	}
	s.byPid[p] = appendLog(s.byPid[p], iv)
	for _, u := range iv.Units {
		if u >= len(s.byUnit) {
			s.growUnits(u + 1)
		}
		s.byUnit[u] = appendLog(s.byUnit[u], iv)
	}
}

// appendLog appends to one of the store's per-processor or per-unit
// lists. A list starts with room for eight: a processor or a unit that is
// written at all is written again in the next iteration, and the three
// smallest growth steps were a third of the allocations Publish makes
// under the write lock.
func appendLog(log []*Interval, iv *Interval) []*Interval {
	if log == nil {
		log = make([]*Interval, 0, 8)
	}
	return append(log, iv)
}

// UnitLog returns the published intervals that wrote unit u, in publish
// order. The returned slice is a stable snapshot: entries are immutable
// once published and appends never alias it backwards, so callers may
// iterate without holding the store's lock.
func (s *Store) UnitLog(u int) []*Interval {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if u >= len(s.byUnit) {
		return nil
	}
	return s.byUnit[u]
}

// Get returns interval (p, seq).
func (s *Store) Get(p int, seq int32) *Interval {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byPid[p][seq-1]
}

// Delta returns every interval covered by 'to' but not by 'from', i.e.
// the write notices an acquirer moving from vector time 'from' to 'to'
// must consume, in causal order.
func (s *Store) Delta(from, to vc.Time) []*Interval {
	return s.DeltaInto(from, to, nil)
}

// DeltaInto is Delta reusing the caller's buffer: out is truncated,
// refilled, and returned (grown only when the delta outsizes its
// capacity). The per-processor sequence runs in the store are each
// causally ascending, so one SortCausally pass over the concatenation
// is near-linear. Hot acquire paths keep a per-processor scratch buffer
// and pay zero steady-state allocation here.
func (s *Store) DeltaInto(from, to vc.Time, out []*Interval) []*Interval {
	out = out[:0]
	s.mu.RLock()
	for p := range s.byPid {
		lo, hi := from[p], to[p]
		for seq := lo + 1; seq <= hi; seq++ {
			out = append(out, s.byPid[p][seq-1])
		}
	}
	s.mu.RUnlock()
	SortCausally(out)
	return out
}

// DeltaDevsInto is the sparse-mode delta: it appends the intervals of
// the given deviating processors between from[p] (exclusive) and seqs[i]
// (inclusive), in causal order, reusing out like DeltaInto. The caller
// guarantees the deviations are exhaustive — every processor whose entry
// in the target time exceeds from's is listed — which holds whenever the
// target is a sparse Stamp whose epoch base is covered by from (epoch
// bases only ever advance, and from is at least the acquirer's own
// epoch). Cost is O(deviations + delta), independent of the processor
// count.
func (s *Store) DeltaDevsInto(from vc.Time, procs, seqs []int32, out []*Interval) []*Interval {
	out = out[:0]
	s.mu.RLock()
	for i, p := range procs {
		lo, hi := from[p], seqs[i]
		for seq := lo + 1; seq <= hi; seq++ {
			out = append(out, s.byPid[p][seq-1])
		}
	}
	s.mu.RUnlock()
	SortCausally(out)
	return out
}

// MakeInterval builds an interval from the written units and the
// non-empty page diffs produced at its close, copying both (callers
// reuse their scratch buffers across intervals).
func MakeInterval(id vc.IntervalID, ts vc.Stamp, units []int, diffs []PageDiff) *Interval {
	return newInterval(id, ts, append([]int(nil), units...), append([]PageDiff(nil), diffs...))
}

// IntervalScratch owns the unit and diff lists of the intervals built
// through it: both copies are carved from slabs instead of allocated
// per interval. The zero value is ready to use; the engine keeps one per
// processor. Every interval it built stays valid until Rewind, and no
// longer.
type IntervalScratch struct {
	units mem.Slab[int]
	diffs mem.Slab[PageDiff]
}

// MakeInterval is the package's MakeInterval with the two copies carved
// from s.
func (s *IntervalScratch) MakeInterval(id vc.IntervalID, ts vc.Stamp, units []int, diffs []PageDiff) *Interval {
	u := s.units.Take(len(units))
	copy(u, units)
	d := s.diffs.Take(len(diffs))
	copy(d, diffs)
	return newInterval(id, ts, u, d)
}

// Rewind makes the scratch's storage reusable. The caller must have
// dropped every interval built through it (the engine rewinds at Reset,
// which drops the interval store).
func (s *IntervalScratch) Rewind() {
	s.units.Rewind()
	s.diffs.Rewind()
}

// newInterval builds an interval that takes ownership of units and
// diffs.
func newInterval(id vc.IntervalID, ts vc.Stamp, units []int, diffs []PageDiff) *Interval {
	iv := &Interval{
		ID:          id,
		TS:          ts,
		Units:       units,
		Diffs:       diffs,
		sum:         ts.Sum(),
		noticeBytes: 8 + 4*ts.Len() + 4*len(units),
	}
	// Keep Diffs sorted by page — the lookup index. closeInterval emits
	// diffs in first-write unit order, which is already ascending for
	// the common sweep patterns, so the insertion pass is usually one
	// comparison per element; duplicates are a protocol bug.
	for i := 1; i < len(iv.Diffs); i++ {
		pd := iv.Diffs[i]
		if iv.Diffs[i-1].Page < pd.Page {
			continue
		}
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pd.Page < iv.Diffs[mid].Page {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(iv.Diffs[lo+1:i+1], iv.Diffs[lo:i])
		iv.Diffs[lo] = pd
	}
	for i := 1; i < len(iv.Diffs); i++ {
		if iv.Diffs[i].Page == iv.Diffs[i-1].Page {
			panic("lrc: duplicate page diff in interval")
		}
	}
	return iv
}

// MissingWrite records, at some processor, one unseen remote interval
// that wrote a given page; the page stays invalid until the diffs of all
// its missing writes have been fetched and applied.
type MissingWrite struct {
	Interval *Interval
}
