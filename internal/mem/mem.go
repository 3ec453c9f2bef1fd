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
// mapping; here it is per simulated processor: a frame table with one
// entry per page, materialized on first write (or first diff
// application). An unmaterialized page reads as zeroes without
// allocating, so a processor's memory is O(pages touched) — what makes
// 256–1024-processor systems over large segments affordable.
type Replica struct {
	frames []*[PageSize]byte // 8 bytes a page; nil until first written
	npages int
}

// zeroFrame is what every unmaterialized page reads as.
var zeroFrame [PageSize]byte

// NewReplica returns a zeroed replica of at least size bytes, rounded up
// to a page multiple. No page storage is allocated until written.
func NewReplica(size int) *Replica {
	n := RoundUpPages(size) >> PageShift
	return &Replica{frames: make([]*[PageSize]byte, n), npages: n}
}

// Size returns the replica size in bytes (a page multiple).
func (r *Replica) Size() int { return r.npages << PageShift }

// Zero resets the replica to all-zeroes by handing every materialized
// frame to the recycler (see pool.go), which is also where the next
// trial's first writes take them from.
func (r *Replica) Zero() {
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
// itself, or a shared all-zero frame while the page is unmaterialized.
// The result is stale once the page is materialized (Page, WriteWord).
func (r *Replica) Frame(p int) []byte {
	if f := r.frames[p]; f != nil {
		return f[:]
	}
	return zeroFrame[:]
}

// Page returns the byte slice backing page p (aliases the replica),
// materializing the frame: callers take Page to write into it (write
// faults, diff application).
func (r *Replica) Page(p int) []byte {
	if f := r.frames[p]; f != nil {
		return f[:]
	}
	return r.materialize(p)[:]
}

// ReadWord loads the 64-bit word at word-aligned address a.
func (r *Replica) ReadWord(a Addr) uint64 {
	f := r.frames[a>>PageShift]
	if f == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f[a&(PageSize-1):])
}

// WriteWord stores the 64-bit word at word-aligned address a.
func (r *Replica) WriteWord(a Addr, v uint64) {
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
