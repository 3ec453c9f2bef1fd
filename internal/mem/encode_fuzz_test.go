package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// refEncodeDiff is the encoder as it was before the chunked compare and
// the slabs — one word comparison per word, extents and values gathered
// in scratch, then copied out at exact size — kept verbatim as the
// reference EncodeDiffInto is compared against.
func refEncodeDiff(twin Twin, page []byte) Diff {
	var offs []uint16
	var lens []int
	var words []uint64
	w := 0
	for w < WordsPerPage {
		if wordAt(twin, w) == wordAt(page, w) {
			w++
			continue
		}
		start := w
		for w < WordsPerPage && wordAt(twin, w) != wordAt(page, w) {
			w++
		}
		offs = append(offs, uint16(start))
		lens = append(lens, w-start)
		for i := start; i < w; i++ {
			words = append(words, wordAt(page, i))
		}
	}
	if len(offs) == 0 {
		return Diff{}
	}
	arena := make([]uint64, len(words))
	copy(arena, words)
	runs := make([]Run, len(offs))
	off := 0
	for i := range runs {
		n := lens[i]
		runs[i] = Run{Off: offs[i], Words: arena[off : off+n : off+n]}
		off += n
	}
	return Diff{runs: runs}
}

// dirtyMask is one bit per word of a page.
type dirtyMask [WordsPerPage / 8]byte

func maskOf(ranges ...[2]int) []byte {
	var m dirtyMask
	for _, r := range ranges {
		for w := r[0]; w < r[1]; w++ {
			m[w/8] |= 1 << (w % 8)
		}
	}
	return m[:]
}

// checkEncode builds a twin from the seed and a page that differs from
// it in exactly the masked words, and requires the encoder and the
// reference to agree on the runs and the wire size, and the diff to
// turn the twin back into the page. The scratch is shared across calls
// so slab carving is exercised too.
func checkEncode(t *testing.T, scr *DiffScratch, seed int64, mask []byte) {
	t.Helper()
	var m dirtyMask
	copy(m[:], mask)
	rng := rand.New(rand.NewSource(seed))
	twin := make(Twin, PageSize)
	rng.Read(twin)
	page := bytes.Clone(twin)
	for w := 0; w < WordsPerPage; w++ {
		if m[w/8]&(1<<(w%8)) != 0 {
			// Flip one byte of the word, not always the first.
			page[w*WordSize+int(seed+int64(w))&(WordSize-1)] ^= 0x5A
		}
	}
	got, want := EncodeDiffInto(scr, twin, page), refEncodeDiff(twin, page)
	if !reflect.DeepEqual(got.Runs(), want.Runs()) {
		t.Fatalf("runs differ:\n got  %v\n want %v", got.Runs(), want.Runs())
	}
	if got.WireBytes() != want.WireBytes() {
		t.Fatalf("wire bytes %d, want %d", got.WireBytes(), want.WireBytes())
	}
	back := bytes.Clone(twin)
	got.Apply(back)
	if !bytes.Equal(back, page) {
		t.Fatal("applying the diff to the twin does not give the page")
	}
}

// encodeSeeds are the shapes the chunked compare could get wrong: runs
// that start on, end on and straddle the 16-word chunk boundaries,
// nothing dirty, everything dirty.
var encodeSeeds = [][]byte{
	maskOf(),
	maskOf([2]int{0, WordsPerPage}),
	maskOf([2]int{0, 16}),
	maskOf([2]int{16, 32}),
	maskOf([2]int{15, 17}),
	maskOf([2]int{15, 16}, [2]int{16, 17}),
	maskOf([2]int{31, 49}),
	maskOf([2]int{0, 1}, [2]int{511, 512}),
	maskOf([2]int{16, 17}, [2]int{47, 48}, [2]int{64, 80}, [2]int{95, 97}),
	maskOf([2]int{496, 512}),
	bytes.Repeat([]byte{0x55}, WordsPerPage/8), // every other word
}

func TestEncodeDiffMatchesReference(t *testing.T) {
	var scr DiffScratch
	for i, mask := range encodeSeeds {
		checkEncode(t, &scr, int64(i), mask)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var m dirtyMask
		// Sparse, dense and run-shaped masks in turn.
		switch i % 3 {
		case 0:
			for k := rng.Intn(8); k > 0; k-- {
				w := rng.Intn(WordsPerPage)
				m[w/8] |= 1 << (w % 8)
			}
		case 1:
			rng.Read(m[:])
		default:
			var ranges [][2]int
			for k := rng.Intn(6); k > 0; k-- {
				lo := rng.Intn(WordsPerPage)
				ranges = append(ranges, [2]int{lo, min(lo+rng.Intn(40)+1, WordsPerPage)})
			}
			copy(m[:], maskOf(ranges...))
		}
		checkEncode(t, &scr, int64(i), m[:])
	}
}

// FuzzEncodeDiff lets the fuzzer choose the dirty-word mask.
func FuzzEncodeDiff(f *testing.F) {
	for i, mask := range encodeSeeds {
		f.Add(int64(i), mask)
	}
	var scr DiffScratch
	f.Fuzz(func(t *testing.T, seed int64, mask []byte) {
		checkEncode(t, &scr, seed, mask)
	})
}

// checkStretches builds a page from the seed and the twin the page's
// writer saved: equal to the page except in the words of wordMask that
// lie in a stretch marked in dirty. The clean stretches of the twin
// handed to EncodeStretchesInto differ from the page in every byte, so a
// read of one would show as a run; the result must equal the reference
// over the twin with clean stretches equal to the page.
func checkStretches(t *testing.T, scr *DiffScratch, seed int64, dirty uint32, wordMask []byte) {
	t.Helper()
	var m dirtyMask
	copy(m[:], wordMask)
	rng := rand.New(rand.NewSource(seed))
	page := make([]byte, PageSize)
	rng.Read(page)
	saved := bytes.Clone(page)
	for w := 0; w < WordsPerPage; w++ {
		if m[w/8]&(1<<(w%8)) != 0 && dirty&(1<<(w*WordSize/StretchBytes)) != 0 {
			saved[w*WordSize+int(seed+int64(w))&(WordSize-1)] ^= 0x5A
		}
	}
	twin := bytes.Clone(saved)
	for b := range twin {
		if dirty&(1<<(b/StretchBytes)) == 0 {
			twin[b] = page[b] ^ byte(1+rng.Intn(255))
		}
	}
	got, want := EncodeStretchesInto(scr, dirty, twin, page), refEncodeDiff(saved, page)
	if !reflect.DeepEqual(got.Runs(), want.Runs()) {
		t.Fatalf("mask %032b: runs differ:\n got  %v\n want %v", dirty, got.Runs(), want.Runs())
	}
	if got.WireBytes() != want.WireBytes() {
		t.Fatalf("mask %032b: wire bytes %d, want %d", dirty, got.WireBytes(), want.WireBytes())
	}
	back := bytes.Clone(saved)
	got.Apply(back)
	if !bytes.Equal(back, page) {
		t.Fatalf("mask %032b: applying the diff to the saved twin does not give the page", dirty)
	}
}

func TestEncodeStretchesCases(t *testing.T) {
	var scr DiffScratch
	page := make([]byte, PageSize)
	rand.New(rand.NewSource(3)).Read(page)

	// A word written and then restored: its stretch is marked, and equal.
	if d := EncodeStretchesInto(&scr, 1<<5, bytes.Clone(page), page); !d.Empty() {
		t.Errorf("restored word: diff %v, want none", d.Runs())
	}

	// A run up to the end of stretch 0, stretch 1 clean: the run stops at
	// the boundary whatever the twin holds beyond it.
	twin := bytes.Clone(page)
	for b := 10 * WordSize; b < 2*StretchBytes; b++ {
		twin[b] ^= 0xFF
	}
	d := EncodeStretchesInto(&scr, 1, twin, page)
	if runs := d.Runs(); len(runs) != 1 || runs[0].Off != 10 || len(runs[0].Words) != 6 {
		t.Errorf("run to a clean stretch: %v, want one run of words 10..15", runs)
	}
	checkStretches(t, &scr, 4, 1, maskOf([2]int{10, 40}))

	// Every stretch marked is EncodeDiffInto.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		twin := bytes.Clone(page)
		for k := rng.Intn(40); k > 0; k-- {
			twin[rng.Intn(PageSize)] ^= byte(1 + rng.Intn(255))
		}
		got, want := EncodeStretchesInto(&scr, ^uint32(0), twin, page), EncodeDiffInto(&scr, twin, page)
		if !reflect.DeepEqual(got.Runs(), want.Runs()) {
			t.Fatalf("all stretches marked: %v, EncodeDiffInto %v", got.Runs(), want.Runs())
		}
	}

	// No stretch marked: nothing is read, nothing is carved.
	for b := range twin {
		twin[b] = ^page[b]
	}
	var empty DiffScratch
	if d := EncodeStretchesInto(&empty, 0, twin, page); !d.Empty() {
		t.Errorf("no stretch marked: diff %v, want none", d.Runs())
	}
	if !reflect.DeepEqual(empty, DiffScratch{}) {
		t.Errorf("no stretch marked: the scratch was used: %+v", empty)
	}
}

func TestEncodeStretchesMatchesReference(t *testing.T) {
	var scr DiffScratch
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var m dirtyMask
		rng.Read(m[:])
		var dirty uint32
		switch i % 3 {
		case 0:
			dirty = rng.Uint32() & rng.Uint32() // sparse
		case 1:
			dirty = rng.Uint32() | rng.Uint32() // dense
		default:
			lo := rng.Intn(32)
			dirty = (^uint32(0) >> (31 - rng.Intn(32-lo))) << lo // one stretch range
		}
		checkStretches(t, &scr, int64(i), dirty, m[:])
	}
}

// FuzzEncodeStretches lets the fuzzer choose the write mask and the
// written words.
func FuzzEncodeStretches(f *testing.F) {
	for i, mask := range encodeSeeds {
		f.Add(int64(i), uint32(0x0F0F00FF)>>(i%8), mask)
	}
	f.Add(int64(0), uint32(0), maskOf([2]int{0, WordsPerPage}))
	f.Add(int64(1), ^uint32(0), maskOf([2]int{0, WordsPerPage}))
	var scr DiffScratch
	f.Fuzz(func(t *testing.T, seed int64, dirty uint32, wordMask []byte) {
		checkStretches(t, &scr, seed, dirty, wordMask)
	})
}
