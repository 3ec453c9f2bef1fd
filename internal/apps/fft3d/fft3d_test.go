package fft3d

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

func small() Config { return Config{N1: 8, N2: 8, N3: 128, Iters: 2, Procs: 8} }

func mustRun(t *testing.T, c Config, ec tmk.Config) *tmk.Result {
	t.Helper()
	a := New(c)
	res, err := apps.Run(a, ec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The FFT kernel itself: transform of a delta function is flat; inverse
// known analytically for simple signals.
func TestFFTKernelDelta(t *testing.T) {
	n := 8
	s := make([]float64, 2*n)
	s[0] = 1 // delta at 0
	fft(sliceBuf{s: s, base: 0, stride: 1, n: n})
	for i := 0; i < n; i++ {
		if math.Abs(s[2*i]-1) > 1e-12 || math.Abs(s[2*i+1]) > 1e-12 {
			t.Fatalf("delta transform bin %d = (%v,%v)", i, s[2*i], s[2*i+1])
		}
	}
}

func TestFFTKernelSingleTone(t *testing.T) {
	n := 16
	s := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		s[2*i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
		s[2*i+1] = math.Sin(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	fft(sliceBuf{s: s, base: 0, stride: 1, n: n})
	for i := 0; i < n; i++ {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if math.Abs(s[2*i]-want) > 1e-9 || math.Abs(s[2*i+1]) > 1e-9 {
			t.Fatalf("bin %d = (%v,%v), want (%v,0)", i, s[2*i], s[2*i+1], want)
		}
	}
}

func TestFFTKernelStrided(t *testing.T) {
	// A strided buffer must transform identically to a packed one.
	n := 8
	packed := make([]float64, 2*n)
	strided := make([]float64, 2*n*3)
	for i := 0; i < n; i++ {
		re := float64(i%3) - 1
		im := float64(i%5) / 5
		packed[2*i], packed[2*i+1] = re, im
		strided[2*i*3], strided[2*i*3+1] = re, im
	}
	fft(sliceBuf{s: packed, base: 0, stride: 1, n: n})
	fft(sliceBuf{s: strided, base: 0, stride: 3, n: n})
	for i := 0; i < n; i++ {
		if packed[2*i] != strided[2*i*3] || packed[2*i+1] != strided[2*i*3+1] {
			t.Fatalf("strided mismatch at %d", i)
		}
	}
}

func TestCorrectAtEveryUnitSize(t *testing.T) {
	for _, up := range []int{1, 2, 4} {
		if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, UnitPages: up, Collect: true}); err != nil {
			t.Fatalf("unit=%d: %v", up, err)
		}
	}
}

func TestCorrectWithDynamicAggregation(t *testing.T) {
	if _, err := apps.Run(New(small()), tmk.Config{Procs: 8, Dynamic: true, Collect: true}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkBytesKnob(t *testing.T) {
	if got := New(Config{N1: 16, N2: 16, N3: 128, Procs: 8}).ChunkBytes(); got != mem.PageSize {
		t.Fatalf("chunk = %d, want one page", got)
	}
	if got := New(Config{N1: 16, N2: 16, N3: 256, Procs: 8}).ChunkBytes(); got != 2*mem.PageSize {
		t.Fatalf("chunk = %d, want two pages", got)
	}
}

// Paper §5.5: when the transpose read chunk equals 2 pages (the 64³
// analogue), 8 KB units aggregate perfectly while 16 KB units transfer
// neighbouring processors' chunks as piggybacked useless data.
func TestTransposeGranularityShape(t *testing.T) {
	c := Config{N1: 8, N2: 8, N3: 256, Iters: 1, Procs: 8} // chunk = 8 KB
	r8 := mustRun(t, c, tmk.Config{Procs: 8, UnitPages: 2, Collect: true})
	r16 := mustRun(t, c, tmk.Config{Procs: 8, UnitPages: 4, Collect: true})
	pig8 := r8.Stats.PiggybackedBytes + r8.Stats.UselessBytes
	pig16 := r16.Stats.PiggybackedBytes + r16.Stats.UselessBytes
	if pig16 <= pig8 {
		t.Fatalf("useless data must appear at 16K: 8K=%d 16K=%d", pig8, pig16)
	}
	if r8.Stats.Messages.Total() <= r16.Stats.Messages.Total()/2 {
		t.Fatalf("messages: 8K=%d 16K=%d", r8.Stats.Messages.Total(), r16.Stats.Messages.Total())
	}
}

func TestDeterministic(t *testing.T) {
	a := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	b := mustRun(t, small(), tmk.Config{Procs: 8, Collect: true})
	if a.Time != b.Time || a.Messages != b.Messages {
		t.Fatal("nondeterministic")
	}
}

// The registry entry is the workload's only name: "3D-FFT" builds this
// package's App, which fails a Check before it has run.
func TestNames(t *testing.T) {
	e, ok := apps.Lookup("3D-FFT", "")
	if !ok {
		t.Fatal("3D-FFT is not registered")
	}
	if _, ok := e.Make(8).(*App); !ok {
		t.Fatal("3D-FFT does not build this package's App")
	}
	a := New(small())
	if a.Locks() != 0 {
		t.Fatalf("locks = %d, want 0", a.Locks())
	}
	if a.Check() == nil {
		t.Fatal("Check before run must fail")
	}
}
