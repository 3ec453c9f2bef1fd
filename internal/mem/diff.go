package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Twin is the pristine copy of a page taken on the first write in an
// interval, used later to encode the diff (the record of modifications).
// Under a write mask (EncodeStretchesInto) only the written stretches of
// a twin are ever read, so only they need to have been copied.
type Twin []byte

// MakeTwin copies the current contents of a page.
func MakeTwin(page []byte) Twin {
	return MakeTwinInto(nil, page)
}

// MakeTwinInto is MakeTwin reusing t's storage when it is page-sized and
// taking a buffer from the recycler (see pool.go) when it is not, so
// steady-state twinning allocates nothing.
func MakeTwinInto(t Twin, page []byte) Twin {
	if len(page) != PageSize {
		panic(fmt.Sprintf("mem: twin of %d-byte page", len(page)))
	}
	if cap(t) < PageSize {
		t = pool.pages.get(true)
	}
	t = t[:PageSize]
	copy(t, page)
	return t
}

// Run is one maximal contiguous range of modified words in a diff.
type Run struct {
	// Off is the word offset of the first modified word within the page.
	Off uint16
	// Words holds the new values of the modified words.
	Words []uint64
}

// Diff records the word-granularity modifications of one page in one
// interval, as produced by comparing the page against its twin. A Diff is
// immutable after encoding; it is published into the owner's diff store
// and served to remote faulting processors.
type Diff struct {
	runs []Run
}

// Wire-format accounting: TreadMarks sends diffs as (page id, run list);
// each run carries a 2-byte offset and 2-byte length header.
const (
	diffHeaderBytes = 8 // page id + run count + interval stamp
	runHeaderBytes  = 4 // offset + length

	// FullPageWireBytes is the wire size of every full-page image
	// (FullPageDiff): one run covering the whole page.
	FullPageWireBytes = diffHeaderBytes + runHeaderBytes + PageSize
)

// EncodeDiff compares a page against its twin and returns the diff. Word
// values are captured at encode time, so the diff remains valid if the
// page is modified afterwards (next interval).
func EncodeDiff(twin Twin, page []byte) Diff {
	var s DiffScratch
	return EncodeDiffInto(&s, twin, page)
}

// Slab geometry. A slab's chunks double from one page to 64 KB: a
// processor that encodes a handful of diffs (one of 256, or a two-
// processor service cell) holds a page or two, one that encodes hundreds
// pays one allocation per 64 KB. Chunks fixed at 64 KB were measured at
// +23 % allocated bytes and +28 % peak RSS on scale-256 (256 processors
// that each encode a few pages' worth).
const (
	slabMinBytes = PageSize
	slabMaxBytes = 64 << 10
	runBytes     = 32 // unsafe.Sizeof(Run{}) on 64-bit hosts; sizes chunks only

	// slabKeepChunks bounds the chunks a slab keeps for Rewind (4 MB at
	// full size); past it, filled chunks are left to the collector along
	// with the diffs that point into them, so a scratch that is never
	// rewound does not grow without bound.
	slabKeepChunks = 64
)

// slab carves sub-slices out of chunks and keeps the chunks, so that a
// Rewind makes all of them reusable at once.
type slab[T any] struct {
	free   []T   // unused tail of the chunk being carved
	chunks [][]T // kept chunks in first-use order; chunks[:used] are carved
	used   int
	last   int // length of the last chunk taken or allocated
}

// take returns n elements of storage with arbitrary contents. Chunk
// lengths double from lo to hi, the full chunk length. Where the
// recycler lists full-size chunks of this kind (full is non-nil), they
// come from it and on release go back to it, and a listed one is taken
// even where the doubling asks for less. A request longer than the first
// chunk (never a word run, rarely a run list) is allocated on its own.
func (s *slab[T]) take(n, lo, hi int, full *freeList[T]) []T {
	if n > lo {
		return make([]T, n)
	}
	if len(s.free) < n {
		if s.used < len(s.chunks) {
			s.free = s.chunks[s.used]
		} else {
			want := min(max(lo, 2*s.last), hi)
			s.free = nil
			if full != nil {
				s.free = full.get(want == hi)
			}
			if s.free == nil {
				s.free = make([]T, want)
			}
			if len(s.chunks) < slabKeepChunks {
				s.chunks = append(s.chunks, s.free)
			}
		}
		s.used = min(s.used+1, len(s.chunks))
		s.last = len(s.free)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

func (s *slab[T]) rewind() {
	s.free, s.used, s.last = nil, 0, 0
}

// DiffScratch owns the storage of the diffs encoded through it: word
// values and run lists are carved from two slabs instead of allocated
// per dirty page. The zero value is ready to use; it is typically kept
// per processor. Every diff it produced stays valid until Rewind or
// Release, and no longer.
type DiffScratch struct {
	runs     []Run // run list of the page being encoded
	wordSlab slab[uint64]
	runSlab  slab[Run]
}

// Rewind makes the scratch's storage reusable. The caller must have
// dropped every diff encoded through it (the engine rewinds at Reset,
// which drops the interval store).
func (s *DiffScratch) Rewind() {
	s.wordSlab.rewind()
	s.runSlab.rewind()
}

// Release is Rewind for a scratch that will not be used again: its
// full-size word chunks go to the recycler. Run chunks do not: listing
// them (pointers to scan, nothing a frame or twin request can use) took
// paper-grid's peak RSS from 53 MB to 58–62 MB for no fewer bytes.
func (s *DiffScratch) Release() {
	put(&pool.words, s.wordSlab.chunks)
	*s = DiffScratch{}
}

// StretchBytes is the unit of a write mask (EncodeStretchesInto), one
// bit per stretch, 32 to a page; it is also what the encoder compares at
// once while it is between runs: 16 words, two cache lines.
const StretchBytes = 128

// EncodeDiffInto is EncodeDiff with the diff's storage carved from s
// (see DiffScratch for its lifetime): EncodeStretchesInto with every
// stretch marked written.
func EncodeDiffInto(s *DiffScratch, twin Twin, page []byte) Diff {
	return EncodeStretchesInto(s, ^uint32(0), twin, page)
}

// EncodeStretchesInto is the diff of a page against its twin when only
// the stretches whose bit is set in dirty (bit i covers bytes
// [i*StretchBytes, (i+1)*StretchBytes)) can have been written: the caller
// vouches that a clear stretch is unchanged, so it is read on neither
// side and the twin there may hold anything. An empty diff takes nothing
// from s. The page is walked a stretch at a time: a written stretch that
// starts between runs and equals its twin is skipped whole, any other is
// compared word by word, a run staying open from one written stretch into
// the next and closing at the first word of a clean one.
func EncodeStretchesInto(s *DiffScratch, dirty uint32, twin Twin, page []byte) Diff {
	if len(twin) != PageSize || len(page) != PageSize {
		panic("mem: EncodeDiff on non-page-sized input")
	}
	runs := s.runs[:0]
	// closeRun records the run [start, end): word values are captured
	// now, so the page may keep changing afterwards.
	closeRun := func(start, end int) {
		words := s.takeWords(end - start)
		for i := range words {
			words[i] = wordAt(page, start+i)
		}
		runs = append(runs, Run{Off: uint16(start), Words: words})
	}
	start := -1 // first word of the open run, if any
	b := 0      // first byte of the stretch dirty's low bit covers
	for ; dirty != 0; b, dirty = b+StretchBytes, dirty>>1 {
		if dirty&1 == 0 {
			if start >= 0 {
				closeRun(start, b>>WordShift)
				start = -1
			}
			continue
		}
		tc, pc := twin[b:b+StretchBytes], page[b:b+StretchBytes]
		// A changed stretch is most often changed from its first word
		// on: look at that before paying for the call.
		if start < 0 && le.Uint64(tc) == le.Uint64(pc) && bytes.Equal(tc, pc) {
			continue
		}
		for i := 0; i < StretchBytes; i += WordSize {
			if le.Uint64(tc[i:]) != le.Uint64(pc[i:]) {
				if start < 0 {
					start = (b + i) >> WordShift
				}
			} else if start >= 0 {
				closeRun(start, (b+i)>>WordShift)
				start = -1
			}
		}
	}
	if start >= 0 {
		closeRun(start, b>>WordShift) // the page's end or a clean stretch
	}
	return s.finish(runs)
}

// takeWords carves storage for one run's n word values.
func (s *DiffScratch) takeWords(n int) []uint64 {
	return s.wordSlab.take(n, slabMinBytes/WordSize, slabMaxBytes/WordSize, &pool.words)
}

// finish returns the diff of runs, built in s.runs, with its run list
// carved from s; s.runs keeps the storage for the next diff.
func (s *DiffScratch) finish(runs []Run) Diff {
	s.runs = runs
	if len(runs) == 0 {
		return Diff{}
	}
	out := s.runSlab.take(len(runs), slabMinBytes/runBytes, slabMaxBytes/runBytes, nil)
	copy(out, runs)
	return Diff{runs: out}
}

var le = binary.LittleEndian

func wordAt(b []byte, w int) uint64 { return le.Uint64(b[w<<WordShift:]) }

func putWordAt(b []byte, w int, v uint64) { le.PutUint64(b[w<<WordShift:], v) }

// Empty reports whether the diff records no modifications.
func (d Diff) Empty() bool { return len(d.runs) == 0 }

// Runs returns the diff's run list (callers must not modify it).
func (d Diff) Runs() []Run { return d.runs }

// WordCount returns the number of modified words the diff carries.
func (d Diff) WordCount() int {
	n := 0
	for _, r := range d.runs {
		n += len(r.Words)
	}
	return n
}

// WireBytes returns the payload size of the diff on the simulated
// network, including run headers.
func (d Diff) WireBytes() int {
	n := diffHeaderBytes
	for _, r := range d.runs {
		n += runHeaderBytes + len(r.Words)*WordSize
	}
	return n
}

// Apply patches the diffed words into dst, which must be a full page.
// Later-applied diffs overwrite earlier ones; the engine applies diffs in
// causal (vector-timestamp) order, which for concurrent diffs of a
// correctly synchronized program touch disjoint words.
func (d Diff) Apply(dst []byte) {
	if len(dst) != PageSize {
		panic("mem: Apply on non-page-sized destination")
	}
	for _, r := range d.runs {
		for i, v := range r.Words {
			putWordAt(dst, int(r.Off)+i, v)
		}
	}
}

// ForEachWord invokes fn with the page-relative word offset of every word
// the diff carries, in ascending order. The instrumentation layer uses
// this to tag applied words with the carrying message.
func (d Diff) ForEachWord(fn func(wordOff int)) {
	for _, r := range d.runs {
		for i := range r.Words {
			fn(int(r.Off) + i)
		}
	}
}

// FullPageDiff captures the entire current contents of a page as a
// single-run diff: applying it overwrites every word of the
// destination, and its WireBytes are FullPageWireBytes, the price of
// the full-page transfer the paper contrasts with diff traffic.
func FullPageDiff(page []byte) Diff {
	if len(page) != PageSize {
		panic("mem: FullPageDiff on non-page-sized input")
	}
	run := Run{Off: 0, Words: make([]uint64, WordsPerPage)}
	for i := range run.Words {
		run.Words[i] = wordAt(page, i)
	}
	return Diff{runs: []Run{run}}
}

// Coalesce merges an ordered sequence of diffs of the same page into one
// equivalent diff, carved from s (see DiffScratch for its lifetime): for
// each word, the value of the last diff that wrote it. The caller must
// pass diffs in application order; this is only meaningful for diffs
// that are totally ordered (e.g. successive intervals of a single
// writer), where it reproduces TreadMarks' remedy for diff accumulation
// — a reader that missed many intervals of a one-writer page receives
// at most one page's worth of data. A single diff is returned as it is.
func (s *DiffScratch) Coalesce(ds []Diff) Diff {
	if len(ds) == 1 {
		return ds[0]
	}
	var vals [WordsPerPage]uint64
	var set [WordsPerPage]bool
	for _, d := range ds {
		for _, r := range d.runs {
			copy(vals[r.Off:], r.Words)
			for i := range r.Words {
				set[int(r.Off)+i] = true
			}
		}
	}
	runs := s.runs[:0]
	for w := 0; w < WordsPerPage; {
		if !set[w] {
			w++
			continue
		}
		start := w
		for w < WordsPerPage && set[w] {
			w++
		}
		words := s.takeWords(w - start)
		copy(words, vals[start:w])
		runs = append(runs, Run{Off: uint16(start), Words: words})
	}
	return s.finish(runs)
}
