package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func pageWithWords(words map[int]uint64) []byte {
	p := make([]byte, PageSize)
	for w, v := range words {
		putWordAt(p, w, v)
	}
	return p
}

func TestEncodeDiffEmpty(t *testing.T) {
	p := make([]byte, PageSize)
	d := EncodeDiff(MakeTwin(p), p)
	if !d.Empty() || d.WordCount() != 0 {
		t.Fatal("diff of unmodified page must be empty")
	}
	if d.WireBytes() != diffHeaderBytes {
		t.Fatalf("empty diff wire bytes = %d", d.WireBytes())
	}
}

func TestEncodeDiffSingleRun(t *testing.T) {
	p := make([]byte, PageSize)
	tw := MakeTwin(p)
	putWordAt(p, 10, 1)
	putWordAt(p, 11, 2)
	putWordAt(p, 12, 3)
	d := EncodeDiff(tw, p)
	runs := d.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	if runs[0].Off != 10 || len(runs[0].Words) != 3 {
		t.Fatalf("run = %+v", runs[0])
	}
	if d.WordCount() != 3 {
		t.Fatalf("WordCount = %d", d.WordCount())
	}
	if want := diffHeaderBytes + runHeaderBytes + 3*WordSize; d.WireBytes() != want {
		t.Fatalf("WireBytes = %d, want %d", d.WireBytes(), want)
	}
}

func TestEncodeDiffMultipleRuns(t *testing.T) {
	p := make([]byte, PageSize)
	tw := MakeTwin(p)
	putWordAt(p, 0, 7)
	putWordAt(p, 5, 8)
	putWordAt(p, 511, 9)
	d := EncodeDiff(tw, p)
	if len(d.Runs()) != 3 {
		t.Fatalf("runs = %d, want 3", len(d.Runs()))
	}
	var offs []int
	d.ForEachWord(func(w int) { offs = append(offs, w) })
	if !reflect.DeepEqual(offs, []int{0, 5, 511}) {
		t.Fatalf("ForEachWord offsets = %v", offs)
	}
}

func TestDiffZeroValueChange(t *testing.T) {
	// A word changed to a different value and a word whose write stored
	// the same value: only genuine changes are diffed (TreadMarks
	// compares content, so silent stores vanish — fine for correctness).
	p := pageWithWords(map[int]uint64{3: 42})
	tw := MakeTwin(p)
	putWordAt(p, 3, 42) // silent store
	putWordAt(p, 4, 1)  // real change
	d := EncodeDiff(tw, p)
	if d.WordCount() != 1 || d.Runs()[0].Off != 4 {
		t.Fatalf("diff = %+v", d.Runs())
	}
}

func TestApplyPatchesOnlyDiffedWords(t *testing.T) {
	// Writer's view
	w := make([]byte, PageSize)
	tw := MakeTwin(w)
	putWordAt(w, 100, 11)
	putWordAt(w, 101, 22)
	d := EncodeDiff(tw, w)

	// Reader's replica has independent prior content elsewhere.
	r := pageWithWords(map[int]uint64{200: 99})
	d.Apply(r)
	if wordAt(r, 100) != 11 || wordAt(r, 101) != 22 {
		t.Fatal("diffed words not applied")
	}
	if wordAt(r, 200) != 99 {
		t.Fatal("Apply touched un-diffed word")
	}
}

func TestDiffImmutableAfterEncode(t *testing.T) {
	p := make([]byte, PageSize)
	tw := MakeTwin(p)
	putWordAt(p, 1, 5)
	d := EncodeDiff(tw, p)
	putWordAt(p, 1, 77) // next-interval write
	dst := make([]byte, PageSize)
	d.Apply(dst)
	if wordAt(dst, 1) != 5 {
		t.Fatalf("diff must capture values at encode time, got %d", wordAt(dst, 1))
	}
}

func TestTwinIndependentOfPage(t *testing.T) {
	p := pageWithWords(map[int]uint64{0: 1})
	tw := MakeTwin(p)
	putWordAt(p, 0, 2)
	if wordAt(tw, 0) != 1 {
		t.Fatal("twin must be a copy, not an alias")
	}
}

func TestMakeTwinPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeTwin(make([]byte, 100))
}

// --- property-based tests ------------------------------------------------

func randomPagePair(r *rand.Rand) (twin Twin, page []byte) {
	page = make([]byte, PageSize)
	// Sparse-ish base content.
	for i := 0; i < 64; i++ {
		putWordAt(page, r.Intn(WordsPerPage), r.Uint64())
	}
	twin = MakeTwin(page)
	// Random modifications, including runs.
	for i := 0; i < 16; i++ {
		start := r.Intn(WordsPerPage)
		n := 1 + r.Intn(8)
		for w := start; w < start+n && w < WordsPerPage; w++ {
			putWordAt(page, w, r.Uint64())
		}
	}
	return twin, page
}

// Property: applying EncodeDiff(twin, page) to a copy of the twin
// reconstructs the page exactly.
func TestPropDiffRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			tw, p := randomPagePair(r)
			args[0] = reflect.ValueOf(tw)
			args[1] = reflect.ValueOf(p)
		},
	}
	f := func(tw Twin, page []byte) bool {
		d := EncodeDiff(tw, page)
		dst := make([]byte, PageSize)
		copy(dst, tw)
		d.Apply(dst)
		return bytes.Equal(dst, page)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: WordCount equals the number of words that differ between twin
// and page, and WireBytes >= header + words*WordSize.
func TestPropDiffAccounting(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			tw, p := randomPagePair(r)
			args[0] = reflect.ValueOf(tw)
			args[1] = reflect.ValueOf(p)
		},
	}
	f := func(tw Twin, page []byte) bool {
		d := EncodeDiff(tw, page)
		want := 0
		for w := 0; w < WordsPerPage; w++ {
			if wordAt(tw, w) != wordAt(page, w) {
				want++
			}
		}
		if d.WordCount() != want {
			return false
		}
		return d.WireBytes() >= diffHeaderBytes+want*WordSize
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: diffs from disjoint writers against a common twin commute.
func TestPropDisjointDiffsCommute(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			base := make([]byte, PageSize)
			for i := 0; i < 32; i++ {
				putWordAt(base, r.Intn(WordsPerPage), r.Uint64())
			}
			a := make([]byte, PageSize)
			copy(a, base)
			b := make([]byte, PageSize)
			copy(b, base)
			// Writer A modifies the bottom half, writer B the top half
			// (write-write false sharing, disjoint words).
			for i := 0; i < 20; i++ {
				putWordAt(a, r.Intn(WordsPerPage/2), r.Uint64())
				putWordAt(b, WordsPerPage/2+r.Intn(WordsPerPage/2), r.Uint64())
			}
			args[0] = reflect.ValueOf([]byte(base))
			args[1] = reflect.ValueOf(a)
			args[2] = reflect.ValueOf(b)
		},
	}
	f := func(base, a, b []byte) bool {
		da := EncodeDiff(Twin(base), a)
		db := EncodeDiff(Twin(base), b)
		x := make([]byte, PageSize)
		copy(x, base)
		da.Apply(x)
		db.Apply(x)
		y := make([]byte, PageSize)
		copy(y, base)
		db.Apply(y)
		da.Apply(y)
		return bytes.Equal(x, y)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Every full-page image has the same wire size, whatever the page holds:
// what a home move is priced at, per page, without building the image.
func TestFullPageDiffWireBytesConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pages := [][]byte{make([]byte, PageSize)}
	for i := 0; i < 4; i++ {
		p := make([]byte, PageSize)
		rng.Read(p)
		pages = append(pages, p)
	}
	for i, p := range pages {
		if got := FullPageDiff(p).WireBytes(); got != FullPageWireBytes {
			t.Errorf("page %d: FullPageDiff(p).WireBytes() = %d, want FullPageWireBytes = %d", i, got, FullPageWireBytes)
		}
	}
	if FullPageWireBytes != 4108 {
		t.Errorf("FullPageWireBytes = %d, want 8 + 4 + 4096", FullPageWireBytes)
	}
}
