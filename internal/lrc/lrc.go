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
	"unsafe"

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
// never leaks information ahead of the protocol. It is also the home
// engine's versioned log: every interval keeps its diffs, so a home
// fetch serves a page at the fetcher's vector time from the writes
// UnitLog says the fetcher has learned and not applied.
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
	// per-writer sequence-ordered. The engine rebuilds a processor's
	// missing writes from this one global index at fault time, so an
	// acquire only invalidates (see tmk's missingInto). Indexed by
	// unit: Reserve sizes it, Publish grows it for a unit past the end.
	byUnit [][]*Interval

	// The run's storage, carved under the write lock: the lists above,
	// and the records, unit lists and diff lists of the intervals
	// Record builds. All of it lives until Reset.
	lists arena[*Interval]
	ivs   arena[Interval]
	units arena[int]
	diffs arena[PageDiff]
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

// Reset empties the store for another run, keeping its index and its
// storage: every interval and list it held is dropped, and the next
// run's are carved from the same chunks.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.byPid)
	clear(s.byUnit)
	s.lists.rewind()
	s.ivs.rewind()
	s.units.rewind()
	s.diffs.rewind()
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
	s.publish(iv)
}

// Record builds the interval MakeInterval would, with the record and
// both copies carved from the store, and publishes it. The interval is
// valid until Reset.
func (s *Store) Record(id vc.IntervalID, ts vc.Stamp, units []int, diffs []PageDiff) *Interval {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units.take(len(units))
	copy(u, units)
	d := s.diffs.take(len(diffs))
	copy(d, diffs)
	iv := &s.ivs.take(1)[0]
	initInterval(iv, id, ts, u, d)
	s.publish(iv)
	return iv
}

// publish is Publish with the write lock held.
func (s *Store) publish(iv *Interval) {
	p := iv.ID.Proc
	if int(iv.ID.Seq) != len(s.byPid[p])+1 {
		panic("lrc: out-of-order interval publish")
	}
	s.byPid[p] = s.push(s.byPid[p], iv)
	for _, u := range iv.Units {
		if u >= len(s.byUnit) {
			s.growUnits(u + 1)
		}
		s.byUnit[u] = s.push(s.byUnit[u], iv)
	}
}

// push appends iv to one of the store's lists. A full list moves to a
// piece of twice its capacity (eight at first: a processor or a unit
// that is written at all is written again in the next iteration), and
// its old piece is never written again before Reset, so a UnitLog
// snapshot of it stays valid.
func (s *Store) push(log []*Interval, iv *Interval) []*Interval {
	if len(log) == cap(log) {
		grown := s.lists.take(max(8, 2*cap(log)))
		log = grown[:copy(grown, log)]
	}
	return append(log, iv)
}

// Arena geometry: chunks double from 8 KB, seven times, to 1 MB. The
// store is the one owner of its arenas, so the unused tail of the last
// chunk is paid once a run, not once a processor.
const (
	arenaMinBytes  = 8 << 10
	arenaDoublings = 7
)

// arena carves pieces of run-lifetime storage out of chunks whose
// lengths double, and keeps the chunks when it is rewound. A piece never
// straddles two chunks; one longer than a chunk gets a chunk of its own.
type arena[T any] struct {
	chunks [][]T
	cur    int // chunks[cur] is being carved, from off on
	off    int
}

// take returns n elements of storage with arbitrary contents.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for a.cur < len(a.chunks) && a.off+n > len(a.chunks[a.cur]) {
		a.cur++
		a.off = 0
	}
	if a.cur == len(a.chunks) {
		var zero T
		size := int(unsafe.Sizeof(zero))
		bytes := arenaMinBytes << min(len(a.chunks), arenaDoublings)
		a.chunks = append(a.chunks, make([]T, max(bytes/size, n)))
	}
	out := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// rewind makes every chunk reusable, dropping the pointers the carved
// pieces held.
func (a *arena[T]) rewind() {
	for i := 0; i < len(a.chunks) && i <= a.cur; i++ {
		clear(a.chunks[i])
	}
	a.cur, a.off = 0, 0
}

// UnitLog returns the published intervals that wrote unit u, in publish
// order. The returned slice is a stable snapshot until Reset: entries
// are immutable once published, and later appends write past its end or
// into a bigger piece, so callers may iterate without holding the
// store's lock.
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
	iv := new(Interval)
	initInterval(iv, id, ts, append([]int(nil), units...), append([]PageDiff(nil), diffs...))
	return iv
}

// initInterval fills *iv, whatever it held, with an interval that takes
// ownership of units and diffs.
func initInterval(iv *Interval, id vc.IntervalID, ts vc.Stamp, units []int, diffs []PageDiff) {
	*iv = Interval{
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
}
