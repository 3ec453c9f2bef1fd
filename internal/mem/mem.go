// Package mem implements the simulated virtual-memory substrate of the
// DSM: a paged shared segment, per-processor replicas, software page
// tables with protection states, twins, and word-granularity diffs.
//
// This package substitutes for the mprotect/SIGSEGV machinery TreadMarks
// uses on real hardware (see DESIGN.md §2): every shared access is routed
// through a page-table check, and protection violations invoke the same
// fault paths a signal handler would.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Page and word geometry. The paper's hardware page is 4 KB; TreadMarks
// diffs at word granularity. We use a 64-bit word so one word holds one
// float64 application element.
const (
	PageShift    = 12
	PageSize     = 1 << PageShift // 4096 bytes
	WordSize     = 8
	WordShift    = 3
	WordsPerPage = PageSize / WordSize // 512
)

// Addr is a byte offset into the shared segment.
type Addr = int

// PageOf returns the page number containing address a.
func PageOf(a Addr) int { return a >> PageShift }

// PageBase returns the first byte address of page p.
func PageBase(p int) Addr { return p << PageShift }

// WordIndex returns the word offset of address a within its page.
// The address must be word-aligned.
func WordIndex(a Addr) int { return (a & (PageSize - 1)) >> WordShift }

// RoundUpPages returns size rounded up to a whole number of pages.
func RoundUpPages(size int) int {
	return (size + PageSize - 1) &^ (PageSize - 1)
}

// Replica is one processor's private copy of the shared segment. In real
// TreadMarks this is the node's physical memory backing the shared
// mapping; here it is per simulated processor, in one of two layouts:
//
//   - eager: one flat byte slice covering the whole segment, zeroed at
//     construction — the historical layout, O(segment) memory per
//     processor regardless of what the processor touches;
//   - lazy: a frame table with one entry per page, materialized on
//     first write (or first diff application). An unmaterialized page
//     reads as zeroes without allocating, so a processor's memory is
//     O(pages touched) — what makes 256–1024-processor systems over
//     large segments affordable.
//
// Both layouts are observationally identical: the segment starts zeroed
// everywhere, and every access goes through ReadWord/WriteWord/Page.
type Replica struct {
	data   []byte            // eager backing; nil in lazy mode
	frames []*[PageSize]byte // lazy frame table, 8 bytes a page; nil in eager mode
	npages int
}

// zeroFrame is what every unmaterialized lazy page reads as.
var zeroFrame [PageSize]byte

// NewReplica allocates a zeroed eager replica of at least size bytes,
// rounded up to a page multiple.
func NewReplica(size int) *Replica {
	return &Replica{data: make([]byte, RoundUpPages(size)), npages: RoundUpPages(size) >> PageShift}
}

// NewLazyReplica returns a lazy replica of at least size bytes, rounded
// up to a page multiple. No page storage is allocated until written.
func NewLazyReplica(size int) *Replica {
	n := RoundUpPages(size) >> PageShift
	return &Replica{frames: make([]*[PageSize]byte, n), npages: n}
}

// Lazy reports whether the replica materializes frames on demand.
func (r *Replica) Lazy() bool { return r.data == nil }

// Size returns the replica size in bytes (a page multiple).
func (r *Replica) Size() int { return r.npages << PageShift }

// Zero resets the replica to all-zeroes. The eager layout clears its
// storage in place; the lazy layout hands every materialized frame to
// the recycler (see pool.go), which is also where the next trial's
// first writes take them from.
func (r *Replica) Zero() {
	if r.data != nil {
		clear(r.data)
		return
	}
	putFrames(r.frames)
	clear(r.frames)
}

// NumPages returns the number of pages in the replica.
func (r *Replica) NumPages() int { return r.npages }

// materialize installs and returns a zeroed frame for page p.
func (r *Replica) materialize(p int) *[PageSize]byte {
	f := (*[PageSize]byte)(pool.pages.get(true))
	clear(f[:])
	r.frames[p] = f
	return f
}

// Frame returns the bytes backing page p for reading only: the page
// itself, or a shared all-zero frame while a lazy page is unmaterialized.
// The result is stale once the page is materialized (Page, WriteWord).
func (r *Replica) Frame(p int) []byte {
	if r.data != nil {
		base := PageBase(p)
		return r.data[base : base+PageSize : base+PageSize]
	}
	if f := r.frames[p]; f != nil {
		return f[:]
	}
	return zeroFrame[:]
}

// Page returns the byte slice backing page p (aliases the replica). In
// lazy mode the frame is materialized: callers take Page to write into
// it (write faults, diff application), so handing out zeroed storage is
// the contract either way.
func (r *Replica) Page(p int) []byte {
	if r.data == nil && r.frames[p] == nil {
		return r.materialize(p)[:]
	}
	return r.Frame(p)
}

// Bytes returns the whole backing store (aliases the replica). Only the
// eager layout has one; lazy replicas return nil.
func (r *Replica) Bytes() []byte { return r.data }

// ReadWord loads the 64-bit word at word-aligned address a.
func (r *Replica) ReadWord(a Addr) uint64 {
	if r.data != nil {
		return binary.LittleEndian.Uint64(r.data[a:])
	}
	f := r.frames[a>>PageShift]
	if f == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f[a&(PageSize-1):])
}

// WriteWord stores the 64-bit word at word-aligned address a.
func (r *Replica) WriteWord(a Addr, v uint64) {
	if r.data != nil {
		binary.LittleEndian.PutUint64(r.data[a:], v)
		return
	}
	f := r.frames[a>>PageShift]
	if f == nil {
		f = r.materialize(a >> PageShift)
	}
	binary.LittleEndian.PutUint64(f[a&(PageSize-1):], v)
}

// ReadF64 loads the float64 at word-aligned address a.
func (r *Replica) ReadF64(a Addr) float64 {
	return math.Float64frombits(r.ReadWord(a))
}

// WriteF64 stores the float64 at word-aligned address a.
func (r *Replica) WriteF64(a Addr, v float64) {
	r.WriteWord(a, math.Float64bits(v))
}

// PageState is the software protection state of one page in one
// processor's page table, mirroring the mprotect states TreadMarks uses.
type PageState uint8

const (
	// Invalid pages hold stale data; any access faults.
	Invalid PageState = iota
	// ReadOnly pages are up to date for reading; a write faults
	// (triggering twin creation, the multiple-writer entry point).
	ReadOnly
	// ReadWrite pages have been twinned this interval; both access
	// kinds proceed without faulting.
	ReadWrite
)

func (s PageState) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case ReadOnly:
		return "ReadOnly"
	case ReadWrite:
		return "ReadWrite"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// PageTable is one processor's software page table.
type PageTable struct {
	states []PageState
}

// NewPageTable returns a table of n pages, all Invalid except as set by
// the caller. TreadMarks starts pages Invalid everywhere except at the
// initializing processor.
func NewPageTable(n int) *PageTable {
	return &PageTable{states: make([]PageState, n)}
}

// NumPages returns the number of pages covered.
func (t *PageTable) NumPages() int { return len(t.states) }

// State returns the protection state of page p.
func (t *PageTable) State(p int) PageState { return t.states[p] }

// Set changes the protection state of page p. Each transition models one
// mprotect call; the caller charges sim.CostModel.ProtOp.
func (t *PageTable) Set(p int, s PageState) { t.states[p] = s }

// CanRead reports whether a read of page p proceeds without a fault.
func (t *PageTable) CanRead(p int) bool { return t.states[p] != Invalid }

// CanWrite reports whether a write to page p proceeds without a fault.
func (t *PageTable) CanWrite(p int) bool { return t.states[p] == ReadWrite }
