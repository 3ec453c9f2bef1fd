package apps

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/tmk"
)

func TestBandBalanced(t *testing.T) {
	// 10 items over 4 procs: 3,3,2,2.
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for p, w := range want {
		lo, hi := Band(10, 4, p)
		if lo != w[0] || hi != w[1] {
			t.Fatalf("Band(10,4,%d) = [%d,%d), want [%d,%d)", p, lo, hi, w[0], w[1])
		}
	}
}

func TestBandCoversExactly(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 64, 100} {
		for _, procs := range []int{1, 3, 8} {
			covered := 0
			prev := 0
			for p := 0; p < procs; p++ {
				lo, hi := Band(n, procs, p)
				if lo != prev {
					t.Fatalf("Band(%d,%d,%d): gap at %d", n, procs, p, lo)
				}
				if hi < lo {
					t.Fatalf("Band(%d,%d,%d): negative range", n, procs, p)
				}
				covered += hi - lo
				prev = hi
			}
			if covered != n {
				t.Fatalf("Band(%d,%d): covered %d", n, procs, covered)
			}
		}
	}
}

func TestCheckClose(t *testing.T) {
	if err := CheckClose("x", 1.0, 1.0+1e-12, 1e-9); err != nil {
		t.Fatalf("tight match rejected: %v", err)
	}
	if err := CheckClose("x", 1.0, 1.1, 1e-9); err == nil {
		t.Fatal("gross mismatch accepted")
	}
	// Relative scaling: large values tolerate proportionally more.
	if err := CheckClose("x", 1e12, 1e12+1, 1e-9); err != nil {
		t.Fatalf("relative tolerance wrong: %v", err)
	}
	// Small-magnitude values use an absolute floor of 1.
	if err := CheckClose("x", 0, 1e-10, 1e-9); err != nil {
		t.Fatalf("absolute floor wrong: %v", err)
	}
	// A NaN or infinite result never passes, nor does a NaN reference.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{nan, 1}, {1, nan}, {nan, nan}, {inf, 1}, {-inf, 1}, {inf, inf}, {1, inf}} {
		if Close(c[0], c[1], 1e-9) {
			t.Errorf("Close(%v, %v) = true", c[0], c[1])
		}
	}
}

func TestCheckEqual(t *testing.T) {
	if err := CheckEqual("x", []float64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("equal slices rejected: %v", err)
	}
	err := CheckEqual("jacobi: cell", []float64{1, 5, 6}, []float64{1, 2, 3})
	if err == nil || err.Error() != "jacobi: cell 1 = 5, want 2" {
		t.Fatalf("mismatch error = %v, want it to name index 1 and both values", err)
	}
	if err := CheckEqual("x", nil, []int64{1}); err == nil {
		t.Fatal("an output shorter than its reference accepted")
	}
	if err := CheckEqual("x", []int64{1, 2}, []int64{1}); err == nil {
		t.Fatal("an output longer than its reference accepted")
	}
	// NaN != NaN: an MGS run that produced NaN where the reference did
	// too must still fail.
	nan := math.NaN()
	if err := CheckEqual("mgs: element", []float64{nan}, []float64{nan}); err == nil {
		t.Fatal("NaN matched NaN")
	}
}

func TestArrAddressing(t *testing.T) {
	a := Arr{Base: 4096}
	if a.At(0) != 4096 || a.At(3) != 4096+24 {
		t.Fatal("Arr.At")
	}
}

func TestLocalMemRoundTrip(t *testing.T) {
	m := NewLocalMem(mem.PageSize)
	m.WriteF64(8, 2.5)
	m.WriteI64(16, -7)
	if m.ReadF64(8) != 2.5 || m.ReadI64(16) != -7 {
		t.Fatal("LocalMem round trip")
	}
	m.Compute(100) // must be a no-op
	if m.ReadF64(8) != 2.5 {
		t.Fatal("Compute must not disturb memory")
	}
}

// A context canceled partway through a cell's trials must stop the
// remaining trials and report how far it got; a pre-canceled context
// runs none.
func TestRunTrialsContextCanceled(t *testing.T) {
	e, ok := Lookup("jacobi", "small")
	if !ok {
		t.Fatal("jacobi/small not registered")
	}
	wl := e.Make(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunTrialsContext(ctx, wl, tmk.Config{Procs: 2}, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTrialsContext error = %v, want context.Canceled", err)
	}
	if want := "canceled after 0/3 trials"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report trial progress %q", err, want)
	}
	// The plain path still runs the cell.
	sum, err := RunTrials(wl, tmk.Config{Procs: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(sum.Trials))
	}
}
