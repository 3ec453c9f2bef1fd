package mem

import (
	"math"
	"runtime"
	"testing"
)

func TestGeometry(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096 (paper's hardware page)", PageSize)
	}
	if WordsPerPage != 512 {
		t.Fatalf("WordsPerPage = %d, want 512", WordsPerPage)
	}
}

func TestPageOfAndBase(t *testing.T) {
	cases := []struct {
		addr Addr
		page int
	}{
		{0, 0}, {4095, 0}, {4096, 1}, {8191, 1}, {8192, 2},
	}
	for _, c := range cases {
		if got := PageOf(c.addr); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.addr, got, c.page)
		}
	}
	if PageBase(3) != 3*4096 {
		t.Errorf("PageBase(3) = %d", PageBase(3))
	}
}

func TestWordIndex(t *testing.T) {
	if WordIndex(0) != 0 {
		t.Error("WordIndex(0)")
	}
	if WordIndex(8) != 1 {
		t.Error("WordIndex(8)")
	}
	if WordIndex(4096+16) != 2 {
		t.Error("WordIndex in second page")
	}
	if WordIndex(4088) != 511 {
		t.Error("WordIndex last word")
	}
}

func TestRoundUpPages(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 4096}, {4096, 4096}, {4097, 8192},
	}
	for _, c := range cases {
		if got := RoundUpPages(c.in); got != c.want {
			t.Errorf("RoundUpPages(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestReplicaWordRoundTrip(t *testing.T) {
	r := NewReplica(2 * PageSize)
	if r.Size() != 2*PageSize || r.NumPages() != 2 {
		t.Fatalf("size/pages = %d/%d", r.Size(), r.NumPages())
	}
	r.WriteWord(16, 0xdeadbeefcafef00d)
	if got := r.ReadWord(16); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadWord = %#x", got)
	}
	r.WriteF64(PageSize+8, 3.25)
	if got := r.ReadF64(PageSize + 8); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
	if got := r.ReadF64(0); got != 0 {
		t.Fatalf("zero word as float = %v", got)
	}
	// NaN round-trips bit-exactly.
	nan := math.Float64frombits(0x7ff8000000000001)
	r.WriteF64(0, nan)
	if bits := r.ReadWord(0); bits != 0x7ff8000000000001 {
		t.Fatalf("NaN bits = %#x", bits)
	}
}

func TestReplicaPageAliases(t *testing.T) {
	r := NewReplica(2 * PageSize)
	p := r.Page(1)
	if len(p) != PageSize {
		t.Fatalf("page len = %d", len(p))
	}
	p[0] = 0xff
	if got := r.ReadWord(PageSize); got != 0xff {
		t.Fatalf("ReadWord after a write through Page = %#x: Page must alias the replica", got)
	}
}

func TestPageTableTransitions(t *testing.T) {
	pt := NewPageTable(4)
	if pt.NumPages() != 4 {
		t.Fatalf("NumPages = %d", pt.NumPages())
	}
	if pt.State(0) != Invalid {
		t.Fatal("pages must start Invalid")
	}
	if pt.CanRead(0) || pt.CanWrite(0) {
		t.Fatal("Invalid page must fault on both access kinds")
	}
	pt.Set(0, ReadOnly)
	if !pt.CanRead(0) || pt.CanWrite(0) {
		t.Fatal("ReadOnly must allow reads, fault writes")
	}
	pt.Set(0, ReadWrite)
	if !pt.CanRead(0) || !pt.CanWrite(0) {
		t.Fatal("ReadWrite must allow both")
	}
}

func TestPageStateString(t *testing.T) {
	if Invalid.String() != "Invalid" || ReadOnly.String() != "ReadOnly" ||
		ReadWrite.String() != "ReadWrite" {
		t.Fatal("PageState.String basic values")
	}
	if PageState(9).String() != "PageState(9)" {
		t.Fatal("PageState.String unknown value")
	}
}

// TestLazyReplicaMatchesEager checks the frame-table replica against a
// flat model of the segment: a zeroed word array written alongside it.
func TestLazyReplicaMatchesEager(t *testing.T) {
	const pages = 8
	r := NewReplica(pages * PageSize)
	model := make([]uint64, pages*WordsPerPage)
	if r.Size() != pages*PageSize || r.NumPages() != pages {
		t.Fatalf("size/pages = %d/%d", r.Size(), r.NumPages())
	}
	// Untouched pages read as zero without materializing.
	if got := r.ReadWord(3 * PageSize); got != 0 {
		t.Fatalf("untouched word = %#x", got)
	}
	if got := r.ReadF64(5*PageSize + 8); got != 0 {
		t.Fatalf("untouched float = %v", got)
	}
	for _, f := range r.frames {
		if f != nil {
			t.Fatal("a read materialized a frame")
		}
	}
	// Writes land where the model says, and nowhere else.
	addrs := []Addr{0, 16, PageSize + 8, 6*PageSize + 504*WordSize}
	for i, a := range addrs {
		v := uint64(0x1111111111111111 * uint64(i+1))
		r.WriteWord(a, v)
		model[a>>WordShift] = v
	}
	for w, want := range model {
		if got := r.ReadWord(w << WordShift); got != want {
			t.Fatalf("word at %d = %#x, model %#x", w<<WordShift, got, want)
		}
	}
	// Page materializes zeroed storage and aliases the replica.
	p := r.Page(2)
	if len(p) != PageSize {
		t.Fatalf("page len = %d", len(p))
	}
	for i, b := range p {
		if b != 0 {
			t.Fatalf("materialized page byte %d = %#x", i, b)
		}
	}
	p[0] = 0xff
	if got := r.ReadWord(2 * PageSize); got&0xff != 0xff {
		t.Fatal("Page must alias the replica")
	}
}

func TestLazyReplicaZeroRecyclesFrames(t *testing.T) {
	r := NewReplica(4 * PageSize)
	for p := 0; p < 4; p++ {
		r.WriteWord(p*PageSize, uint64(p+1))
	}
	r.Zero()
	for p := 0; p < 4; p++ {
		if got := r.ReadWord(p * PageSize); got != 0 {
			t.Fatalf("page %d word after Zero = %#x", p, got)
		}
	}
	// Reused frames (from the recycler) must come back cleared.
	r.WriteWord(2*PageSize+8, 7)
	pg := r.Page(2)
	for i := 0; i < 8; i++ {
		if pg[i] != 0 {
			t.Fatalf("recycled frame byte %d = %#x", i, pg[i])
		}
	}
	if r.ReadWord(2*PageSize+8) != 7 {
		t.Fatal("write after Zero lost")
	}
}

// TestLazyReplicaFootprint pins the point of the lazy layout at scale:
// a processor that touches a few pages of a large segment backs about
// that many frames, not a fixed chunk sized for a processor that
// touches hundreds, and its untouched pages cost one 8-byte frame
// pointer each.
func TestLazyReplicaFootprint(t *testing.T) {
	// The table of 1000 pages is 8000 bytes (an 8 KB size class); the
	// header is one 64-byte object. A slice header a page would be 24 KB.
	const reps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		footprintSink = NewReplica(1000 * PageSize)
	}
	runtime.ReadMemStats(&after)
	if per, budget := (after.TotalAlloc-before.TotalAlloc)/reps, uint64(8<<10+64); per > budget {
		t.Errorf("NewReplica of 1000 pages: %d bytes, budget %d", per, budget)
	}

	r := NewReplica(1000 * PageSize)
	for _, p := range []int{3, 400, 401, 750, 999} {
		r.WriteWord(p*PageSize, 1)
	}
	touched := 0
	for _, f := range r.frames {
		if f != nil {
			touched++
		}
	}
	// Frames are allocated one page at a time (see pool.go), so what is
	// materialized is all the backing store there is.
	if touched != 5 {
		t.Fatalf("5 pages written: %d frames materialized", touched)
	}
}

// footprintSink keeps the replicas TestLazyReplicaFootprint measures
// from being optimized away.
var footprintSink *Replica
