package trace

import (
	"fmt"
	"io"
	"sync"
)

// Ring is the flight recorder's sink: a fixed-capacity ring of encoded
// trace lines. A Writer pointed at a Ring keeps the newest N events of
// a live process's completed runs in memory at all times (it writes no
// header line into a Ring); Dump streams them out behind a header line
// of its own when someone wants to see what the engine was doing just
// now. Write assumes one call per line,
// which is exactly the Writer's contract.
type Ring struct {
	mu      sync.Mutex
	lines   [][]byte
	head    int // oldest retained line once full
	n       int // retained count
	dropped int64
}

// NewRing returns a flight recorder retaining the newest capacity
// events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{lines: make([][]byte, capacity)}
}

// Write retains p as one line, evicting the oldest when full. The
// buffer is copied; p may be reused by the caller.
func (r *Ring) Write(p []byte) (int, error) {
	line := make([]byte, len(p))
	copy(line, p)
	r.mu.Lock()
	if r.n < len(r.lines) {
		r.lines[(r.head+r.n)%len(r.lines)] = line
		r.n++
	} else {
		r.lines[r.head] = line
		r.head = (r.head + 1) % len(r.lines)
		r.dropped++
	}
	r.mu.Unlock()
	return len(p), nil
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many lines have been evicted to make room.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Dump writes the retained window to w as a readable trace: a header
// line first, then the retained lines oldest-first. A dump is a
// window, not a complete capture: run_start/run_end pairs may be
// missing, so it is for inspection, not replay.
func (r *Ring) Dump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\"e\":%q,\"v\":%d}\n", EvHeader, Version); err != nil {
		return err
	}
	r.mu.Lock()
	window := make([][]byte, 0, r.n)
	for i := 0; i < r.n; i++ {
		window = append(window, r.lines[(r.head+i)%len(r.lines)])
	}
	r.mu.Unlock()
	for _, line := range window {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
