// Sparse interval clocks.
//
// Between global synchronizations, a processor's vector time touches very
// few entries: its own (interval ticks) and those of the processors it
// acquired from. Everything else is pinned to the last barrier's merged
// time. The representations below exploit exactly that shape:
//
//   - an Epoch is the immutable merged time of one barrier episode,
//     shared by every processor that left the barrier;
//   - a Stamp is a vector timestamp stored either dense (a plain Time)
//     or sparse — an Epoch base plus a short sorted deviation list of
//     the entries that advanced past it;
//   - a Tracked is a processor's dense working register plus the live
//     deviation set, from which sparse Stamps are snapshotted in
//     O(deviations) instead of O(nprocs).
//
// Epochs are totally ordered (Seq), and VT(e) <= VT(e') entrywise when
// e.Seq <= e'.Seq, so a holder of a later epoch covers any earlier
// epoch's base by construction — the property every fast path below
// rests on. When a deviation list grows past its usefulness the Stamp
// constructors fall back to the dense layout, so no operation is ever
// worse than its dense counterpart.
package vc

// Epoch is an immutable snapshot of a globally synchronized vector time
// — in the DSM engine, the merged time of one barrier episode. VT is
// read-only after construction; nil means the zero vector (the state
// before the first synchronization).
type Epoch struct {
	// Seq is the episode number: 0 for the run-start zero vector, then
	// 1, 2, ... per completed barrier. Entrywise, VT is monotone in Seq.
	Seq int
	// VT is the merged vector time (read-only; nil = zero vector).
	VT  Time
	sum int64
}

// NewEpoch wraps a merged vector time as an immutable epoch. The caller
// must not mutate vt afterwards.
func NewEpoch(seq int, vt Time) *Epoch {
	e := &Epoch{Seq: seq, VT: vt}
	for _, v := range vt {
		e.sum += int64(v)
	}
	return e
}

// Sum returns the entry sum of the epoch's vector time.
func (e *Epoch) Sum() int64 { return e.sum }

// Entry returns the epoch's entry for processor p.
func (e *Epoch) Entry(p int) int32 {
	if e.VT == nil {
		return 0
	}
	return e.VT[p]
}

// Stamp is a vector timestamp in one of two layouts:
//
//   - dense: a plain Time (the fallback, and the only layout the
//     reference "dense" engine mode ever builds);
//   - sparse: an Epoch base plus sorted deviations (procs[i], seqs[i])
//     with seqs[i] > base.Entry(procs[i]) — entries that advanced past
//     the shared base. Every other entry equals the base's.
//
// A Stamp is immutable once built; the deviation slices are retained,
// not copied, so callers carve them from storage that outlives the
// stamp (see StampArena). The entry sum is cached at construction —
// O(n) dense, O(deviations) sparse — making causal keys O(1).
type Stamp struct {
	n     int
	base  *Epoch // sparse layout; nil when dense
	dense Time   // dense layout; nil when sparse
	procs []int32
	seqs  []int32
	sum   int64
}

// DenseStamp wraps a dense vector time (retained, not copied: the
// caller must not mutate t afterwards).
func DenseStamp(t Time) Stamp {
	s := Stamp{n: len(t), dense: t}
	for _, v := range t {
		s.sum += int64(v)
	}
	return s
}

// SparseStamp builds a sparse stamp of length n over base with the
// given sorted deviations (retained, not copied). Deviations must
// satisfy seqs[i] > base.Entry(procs[i]).
func SparseStamp(base *Epoch, n int, procs, seqs []int32) Stamp {
	s := Stamp{n: n, base: base, procs: procs, seqs: seqs, sum: base.Sum()}
	for i, p := range procs {
		s.sum += int64(seqs[i] - base.Entry(int(p)))
	}
	return s
}

// Len returns the vector length (the processor count).
func (s Stamp) Len() int { return s.n }

// Sum returns the cached entry sum — the first component of the causal
// key used to linearize happens-before.
func (s Stamp) Sum() int64 { return s.sum }

// Base returns the sparse layout's epoch base (nil for dense stamps).
func (s Stamp) Base() *Epoch { return s.base }

// Deviations returns the sparse layout's deviation lists (read-only;
// nil for dense stamps). A holder whose vector time covers the stamp's
// base can consume the stamp by visiting only these entries.
func (s Stamp) Deviations() (procs, seqs []int32) { return s.procs, s.seqs }

// Entry returns the stamp's entry for processor p.
func (s Stamp) Entry(p int) int32 {
	if s.base == nil {
		return s.dense[p]
	}
	// Deviation lists are short; a linear scan beats binary search at
	// the sizes the engine builds (own tick + a few lock chains).
	for i, dp := range s.procs {
		if int(dp) == p {
			return s.seqs[i]
		}
		if int(dp) > p {
			break
		}
	}
	return s.base.Entry(p)
}

// Dense materializes the stamp into dst (grown if needed) and returns
// it. The result is independent of the stamp's storage.
func (s Stamp) Dense(dst Time) Time {
	if cap(dst) < s.n {
		dst = make(Time, s.n)
	}
	dst = dst[:s.n]
	if s.base == nil {
		copy(dst, s.dense)
		return dst
	}
	if s.base.VT == nil {
		for i := range dst {
			dst[i] = 0
		}
	} else {
		copy(dst, s.base.VT)
	}
	for i, p := range s.procs {
		dst[p] = s.seqs[i]
	}
	return dst
}

// Covers reports whether s dominates u entrywise (s >= u).
//
// When both stamps are sparse and s's base epoch is at least u's,
// s covers u's base by epoch monotonicity, deviations only advance past
// their base, and so only u's deviating entries can violate dominance —
// an O(deviations) check. All other combinations fall back to the
// entrywise scan.
func (s Stamp) Covers(u Stamp) bool {
	if s.base != nil && u.base != nil && s.base.Seq >= u.base.Seq {
		for i, p := range u.procs {
			if s.Entry(int(p)) < u.seqs[i] {
				return false
			}
		}
		return true
	}
	for p := 0; p < s.n; p++ {
		if s.Entry(p) < u.Entry(p) {
			return false
		}
	}
	return true
}

// Concurrent reports that neither stamp dominates the other.
func (s Stamp) Concurrent(u Stamp) bool {
	return !s.Covers(u) && !u.Covers(s)
}

// StampArena carves the deviation slices of sparse stamps from chunked
// blocks. Blocks are never reallocated, so earlier stamps stay valid as
// the arena grows; Reset recycles the blocks once no live stamp
// references them (the engine resets between trials, after the interval
// store is dropped). Steady state carves allocate nothing. Blocks start
// small and double, so a processor that closes a few intervals holds a
// few hundred entries, not a full block.
type StampArena struct {
	blocks [][]int32
	cur    int // index of the block being carved
}

// Block capacities in int32s: the first block's, and the largest step
// of the doubling.
const (
	stampArenaFirst = 256
	stampArenaBlock = 4096
)

// Carve returns a zero-length slice with capacity n whose backing store
// is stable for the arena's lifetime (until Reset).
func (a *StampArena) Carve(n int) []int32 {
	if n > stampArenaBlock {
		// Oversized request (a deviation list approaching nprocs —
		// the caller should have fallen back to dense): own allocation.
		return make([]int32, 0, n)
	}
	for {
		if a.cur == len(a.blocks) {
			size := stampArenaFirst
			if k := len(a.blocks); k > 0 {
				size = min(2*cap(a.blocks[k-1]), stampArenaBlock)
			}
			if n > size {
				size = stampArenaBlock
			}
			a.blocks = append(a.blocks, make([]int32, 0, size))
		}
		b := a.blocks[a.cur]
		if cap(b)-len(b) >= n {
			carved := b[len(b) : len(b) : len(b)+n]
			a.blocks[a.cur] = b[:len(b)+n]
			return carved
		}
		a.cur++
	}
}

// Reset recycles every block. Only call when no live Stamp references
// the arena's storage.
func (a *StampArena) Reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.cur = 0
}

// Tracked is a processor's working vector time: the dense register T
// plus the set of entries that have advanced past the current epoch
// base. The deviation set is exactly what a sparse Stamp snapshot needs,
// so closing an interval is O(deviations); it is also what a barrier
// manager needs to know which processors published intervals this
// episode.
type Tracked struct {
	T    Time
	base *Epoch
	devs []int32 // sorted procs where T advanced past base
	mark []bool  // mark[p] <=> p in devs
}

// NewTracked returns a tracked register of length n at the zero epoch.
func NewTracked(n int) *Tracked {
	return &Tracked{T: New(n), base: &Epoch{}, mark: make([]bool, n)}
}

// Base returns the current epoch base.
func (tr *Tracked) Base() *Epoch { return tr.base }

// Devs returns the sorted deviating processors (read-only).
func (tr *Tracked) Devs() []int32 { return tr.devs }

// Rebase resets the register to epoch e: T becomes a copy of e.VT and
// the deviation set empties. Called when a barrier grant installs the
// merged episode time (which covers everything the processor knew).
func (tr *Tracked) Rebase(e *Epoch) {
	if e.VT == nil {
		tr.T.Zero()
	} else {
		tr.T.CopyFrom(e.VT)
	}
	for _, p := range tr.devs {
		tr.mark[p] = false
	}
	tr.devs = tr.devs[:0]
	tr.base = e
}

// note records that entry p advanced past the base.
func (tr *Tracked) note(p int) {
	if tr.mark[p] {
		return
	}
	tr.mark[p] = true
	// Sorted insert; deviation sets are short between barriers.
	i := len(tr.devs)
	tr.devs = append(tr.devs, int32(p))
	for i > 0 && tr.devs[i-1] > int32(p) {
		tr.devs[i] = tr.devs[i-1]
		i--
	}
	tr.devs[i] = int32(p)
}

// Tick advances the register's own entry p and returns the new interval
// number.
func (tr *Tracked) Tick(p int) int32 {
	v := tr.T.Tick(p)
	tr.note(p)
	return v
}

// MergeStamp merges stamp s into the register. When s is sparse and its
// base epoch is not newer than the register's, only s's deviations can
// raise entries — O(deviations). Otherwise every entry is compared.
func (tr *Tracked) MergeStamp(s Stamp) {
	if s.base != nil && s.base.Seq <= tr.base.Seq {
		for i, p := range s.procs {
			if v := s.seqs[i]; v > tr.T[p] {
				tr.T[p] = v
				tr.note(int(p))
			}
		}
		return
	}
	for p := 0; p < len(tr.T); p++ {
		if v := s.Entry(p); v > tr.T[p] {
			tr.T[p] = v
			tr.note(p)
		}
	}
}

// MergeTime merges a dense vector time into the register entrywise —
// the dense-reference-mode merge, with deviation bookkeeping.
func (tr *Tracked) MergeTime(t Time) {
	for p, v := range t {
		if v > tr.T[p] {
			tr.T[p] = v
			tr.note(p)
		}
	}
}

// Snapshot builds a Stamp of the register's current value, with storage
// carved from a. Compact deviation sets produce a sparse stamp in
// O(deviations); a set that has fragmented toward the vector length
// (heavy lock chains) falls back to a dense copy, so consumers never
// pay sparse bookkeeping past its break-even.
func (tr *Tracked) Snapshot(a *StampArena) Stamp {
	nd, n := len(tr.devs), len(tr.T)
	if nd*4 > n && n > 8 {
		buf := a.Carve(n)[:n]
		copy(buf, tr.T)
		return DenseStamp(Time(buf))
	}
	buf := a.Carve(2 * nd)[:2*nd]
	procs, seqs := buf[:nd:nd], buf[nd:]
	for i, p := range tr.devs {
		procs[i] = p
		seqs[i] = tr.T[p]
	}
	return SparseStamp(tr.base, n, procs, seqs)
}
