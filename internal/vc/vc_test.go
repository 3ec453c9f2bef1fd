package vc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("entry %d = %d, want 0", i, x)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Time{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestCoversAndBefore(t *testing.T) {
	a := Time{1, 2, 3}
	b := Time{1, 2, 3}
	c := Time{2, 2, 3}
	d := Time{0, 5, 0}

	if !a.Covers(b) || !b.Covers(a) {
		t.Fatal("equal vectors must cover each other")
	}
	if !c.Covers(a) {
		t.Fatal("c >= a entrywise, Covers must hold")
	}
	if a.Covers(c) {
		t.Fatal("a does not cover c")
	}
	if !a.Before(c) {
		t.Fatal("a < c must be Before")
	}
	if a.Before(b) {
		t.Fatal("equal vectors are not strictly before")
	}
	if !a.Concurrent(d) {
		t.Fatal("a and d are incomparable, must be Concurrent")
	}
	if a.Concurrent(c) {
		t.Fatal("a < c, must not be Concurrent")
	}
}

func TestCoversPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Time{1}.Covers(Time{1, 2})
}

func TestMergeIsLUB(t *testing.T) {
	a := Time{1, 5, 0}
	b := Time{3, 2, 0}
	m := merged(a, b)
	want := Time{3, 5, 0}
	if !m.Equal(want) {
		t.Fatalf("Merge = %v, want %v", m, want)
	}
	if !m.Covers(a) || !m.Covers(b) {
		t.Fatal("merge must cover both inputs")
	}
}

// merged returns the least upper bound of a and b in a fresh vector.
func merged(a, b Time) Time {
	m := a.Clone()
	m.Merge(b)
	return m
}

func TestTickAndKnowsInterval(t *testing.T) {
	v := New(3)
	if v.KnowsInterval(1, 1) {
		t.Fatal("zero vector knows no intervals")
	}
	n := v.Tick(1)
	if n != 1 || v[1] != 1 {
		t.Fatalf("Tick = %d, v[1] = %d, want 1,1", n, v[1])
	}
	if !v.KnowsInterval(1, 1) || v.KnowsInterval(1, 2) {
		t.Fatal("KnowsInterval wrong after Tick")
	}
}

func TestIntervalIDString(t *testing.T) {
	a := IntervalID{Proc: 0, Seq: 5}
	if a.String() != "p0:i5" {
		t.Fatalf("String = %q", a.String())
	}
}

// --- property-based tests (testing/quick) -------------------------------

func genVec(r *rand.Rand, n int) Time {
	v := New(n)
	for i := range v {
		v[i] = int32(r.Intn(6))
	}
	return v
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(genVec(r, 4))
			}
		},
	}
}

func TestPropCoversReflexive(t *testing.T) {
	f := func(a Time) bool { return a.Covers(a) }
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCoversAntisymmetric(t *testing.T) {
	f := func(a, b Time) bool {
		if a.Covers(b) && b.Covers(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCoversTransitive(t *testing.T) {
	f := func(a, b, c Time) bool {
		if a.Covers(b) && b.Covers(c) {
			return a.Covers(c)
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergeLeastUpperBound(t *testing.T) {
	f := func(a, b, c Time) bool {
		m := merged(a, b)
		if !m.Covers(a) || !m.Covers(b) {
			return false
		}
		// Least: any common upper bound covers the merge.
		if c.Covers(a) && c.Covers(b) && !c.Covers(m) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergeCommutativeIdempotent(t *testing.T) {
	f := func(a, b Time) bool {
		return merged(a, b).Equal(merged(b, a)) && merged(a, a).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
