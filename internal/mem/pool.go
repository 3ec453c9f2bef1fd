package mem

import "sync"

// The page recycler: one process-wide set of free lists that outlives
// any one System. A run's replica frames, twins and full-size diff-slab
// chunks are handed to it when their owner is released and taken from
// it by the next run, so a grid of cells stops allocating, zeroing and
// collecting the same few megabytes once per cell. The lists hold
// individually allocated buffers and are bounded by count; DESIGN.md §15
// has the measurements behind both choices. Buffers come back dirty:
// frames are cleared when they are taken, slab words are overwritten in
// full by their users, and a twin buffer is read only where its user
// has saved into it since taking it.

// poolMaxPages bounds what the lists hold together, in pages (a slab
// chunk counts for its 16): 5 MB. Chosen on paper-grid, whose 60 cells
// ask for 33 to 2060 buffers each (mean 595) and whose parent allocated
// 8.04 MB a cell at a peak RSS of 52–54 MB:
//
//	bound   hits   MB/cell   peak RSS, MB
//	1024    70 %    4.60     53.2–53.9
//	1280    77 %    4.21     54.3–56.1
//	1536    82 %    3.90     54.8–57.0
//	2048    88 %    3.64     58.8–59.9
const poolMaxPages = 1280

// PoolCounters is a snapshot of the recycler's dispositions since
// process start. Hits, Misses and Drops count buffers (a page or a slab
// chunk each); Pages is what the lists hold now.
type PoolCounters struct {
	Hits   uint64 // requests served from a list
	Misses uint64 // requests that had to allocate
	Drops  uint64 // released buffers the bound turned away
	Pages  int    // pages held, a slab chunk counting for its 16
}

// freeList holds released buffers of one kind, all of length size.
type freeList[T any] struct {
	bufs   [][]T
	size   int // elements per buffer
	pages  int // what one buffer counts toward poolMaxPages
	poison T   // what a poisoned buffer is filled with
}

var pool = struct {
	mu sync.Mutex
	PoolCounters
	// poison, a test hook, fills every buffer with 0xA5 as it is listed,
	// so that a reader of recycled memory fails its check instead of
	// passing by luck.
	poison bool
	pages  freeList[byte]
	words  freeList[uint64]
}{
	pages: freeList[byte]{size: PageSize, pages: 1, poison: 0xA5},
	words: freeList[uint64]{size: slabMaxBytes / WordSize, pages: slabMaxBytes / PageSize, poison: 0xA5A5A5A5A5A5A5A5},
}

// PoolStats returns the recycler's counters.
func PoolStats() PoolCounters {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.PoolCounters
}

// get returns a buffer of l's size with arbitrary contents: a listed one
// if there is any, else a new one — or nil when mustAlloc is false.
func (l *freeList[T]) get(mustAlloc bool) []T {
	var b []T
	pool.mu.Lock()
	if n := len(l.bufs); n > 0 {
		b, l.bufs[n-1] = l.bufs[n-1], nil
		l.bufs = l.bufs[:n-1]
		pool.Pages -= l.pages
		pool.Hits++
	} else if mustAlloc {
		pool.Misses++
	}
	pool.mu.Unlock()
	if b == nil && mustAlloc {
		b = make([]T, l.size)
	}
	return b
}

// put lists the buffers of l's size among bufs, up to the bound; nil
// entries and buffers of any other size are skipped. The caller must
// hold no other reference to what it hands over.
func put[T any, B ~[]T](l *freeList[T], bufs []B) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, b := range bufs {
		l.add(b)
	}
}

// putFrames is put for a replica's frame table: every frame goes
// to the page list.
func putFrames(frames []*[PageSize]byte) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, f := range frames {
		if f != nil {
			pool.pages.add(f[:])
		}
	}
}

// add lists b if it is of l's size, up to the bound. Call with pool.mu
// held.
func (l *freeList[T]) add(b []T) {
	if len(b) != l.size {
		return
	}
	if pool.Pages+l.pages > poolMaxPages {
		pool.Drops++
		return
	}
	if pool.poison {
		for i := range b {
			b[i] = l.poison
		}
	}
	l.bufs = append(l.bufs, b)
	pool.Pages += l.pages
}

// GetPage returns a page-sized buffer with arbitrary contents: a
// recycled one if the recycler lists any, else a new one.
func GetPage() *[PageSize]byte { return (*[PageSize]byte)(pool.pages.get(true)) }

// PutPage hands a page-sized buffer its owner no longer needs to the
// recycler; nil is skipped.
func PutPage(b *[PageSize]byte) {
	if b == nil {
		return
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.pages.add(b[:])
}
