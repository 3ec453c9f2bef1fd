// Package vc implements the vector timestamps that order intervals in
// lazy release consistency. Each processor numbers its own intervals with
// a monotonically increasing counter; a vector timestamp records, per
// processor, the highest interval of that processor known (seen) locally.
//
// Interval (p, i) "happens before" a vector time v iff v[p] >= i: the
// holder of v has (transitively) synchronized with p after p closed
// interval i, and must therefore see p's writes from that interval.
package vc

import "fmt"

// Time is a vector timestamp over a fixed number of processors. The zero
// value of an entry means "no interval of that processor seen yet";
// interval numbering starts at 1.
type Time []int32

// New returns a zero vector time for n processors.
func New(n int) Time { return make(Time, n) }

// Clone returns an independent copy of t.
func (t Time) Clone() Time {
	c := make(Time, len(t))
	copy(c, t)
	return c
}

// CopyFrom sets t to an entrywise copy of u. Both timestamps must have
// the same length: this is the allocation-free alternative to Clone for
// hot paths that own a reusable destination.
func (t Time) CopyFrom(u Time) {
	if len(t) != len(u) {
		panic(fmt.Sprintf("vc: length mismatch %d vs %d", len(t), len(u)))
	}
	copy(t, u)
}

// Zero resets every entry of t, reusing the storage (the allocation-free
// alternative to New for reinitialization, e.g. a barrier epoch reset).
func (t Time) Zero() {
	for i := range t {
		t[i] = 0
	}
}

// Covers reports whether t dominates u entrywise (t >= u): every interval
// known to u is known to t. Both timestamps must have the same length.
func (t Time) Covers(u Time) bool {
	if len(t) != len(u) {
		panic(fmt.Sprintf("vc: length mismatch %d vs %d", len(t), len(u)))
	}
	for i := range t {
		if t[i] < u[i] {
			return false
		}
	}
	return true
}

// Equal reports entrywise equality.
func (t Time) Equal(u Time) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Before reports strict happened-before: t <= u and t != u.
func (t Time) Before(u Time) bool {
	return u.Covers(t) && !t.Equal(u)
}

// Concurrent reports that neither timestamp dominates the other.
func (t Time) Concurrent(u Time) bool {
	return !t.Covers(u) && !u.Covers(t)
}

// Merge sets t to the entrywise maximum of t and u (the least upper
// bound), the operation performed when consistency information arrives at
// an acquire.
func (t Time) Merge(u Time) {
	if len(t) != len(u) {
		panic(fmt.Sprintf("vc: length mismatch %d vs %d", len(t), len(u)))
	}
	for i := range t {
		if u[i] > t[i] {
			t[i] = u[i]
		}
	}
}

// KnowsInterval reports whether interval number iv of processor p is
// covered by t.
func (t Time) KnowsInterval(p int, iv int32) bool { return t[p] >= iv }

// Tick advances processor p's own entry to mark the close of its next
// interval and returns the new interval number.
func (t Time) Tick(p int) int32 {
	t[p]++
	return t[p]
}

// String renders the vector as "<1 0 3 ...>".
func (t Time) String() string {
	s := "<"
	for i, v := range t {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(v)
	}
	return s + ">"
}

// IntervalID names one closed interval of one processor.
type IntervalID struct {
	Proc int
	Seq  int32
}

func (a IntervalID) String() string {
	return fmt.Sprintf("p%d:i%d", a.Proc, a.Seq)
}
