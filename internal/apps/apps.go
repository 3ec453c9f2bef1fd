// Package apps defines the workload interface shared by the paper's
// eight applications, the named workload registry, and small
// addressing helpers. Each application lives in its own subpackage,
// provides both a DSM-parallel implementation (against internal/tmk)
// and a plain-Go sequential reference used to verify correctness, and
// self-registers its datasets (Register) so workloads are runnable by
// name; import repro/internal/apps/all to populate the registry.
//
// Dataset sizes are scaled down from the paper's but preserve the
// granularity-to-page-size ratios that §5.4–5.5 identify as the decisive
// variable; each Entry's Paper field names the paper input a dataset
// stands in for (`dsmrun -list` prints it as "(paper: …)").
package apps

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/tmk"
)

// Workload is one application × dataset instance. The lifecycle is:
// construct, Prepare (allocates shared memory; single-threaded), Run the
// system with Body, then Check. A workload has no name of its own: its
// registry Entry (Register) names the app and dataset it was built for.
type Workload interface {
	// SegmentBytes is the shared-segment size the workload needs.
	SegmentBytes() int
	// Locks is the number of global locks the workload needs.
	Locks() int
	// Prepare allocates shared addresses. Called once, before Run.
	Prepare(sys *tmk.System)
	// Body is the per-processor program.
	Body(p *tmk.Proc)
	// Check verifies the parallel result against the sequential
	// reference (CheckEqual compares the two outputs). Called after Run;
	// must be deterministic.
	Check() error
}

// NewSystem builds a prepared DSM instance for a workload: segment
// size and lock count are taken from the workload, and Prepare has
// allocated its shared addresses.
func NewSystem(w Workload, cfg tmk.Config) (*tmk.System, error) {
	// Slack covers the unit-boundary padding AllocPages may introduce
	// (up to UnitPages-1 pages per allocation).
	cfg.SegmentBytes = w.SegmentBytes() + 64*mem.PageSize
	cfg.Locks = w.Locks()
	sys, err := tmk.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	w.Prepare(sys)
	return sys, nil
}

// Run executes a workload under the given engine configuration and
// verifies the result against the sequential reference. The System is
// released once checked, so the next run reuses its pages.
func Run(w Workload, cfg tmk.Config) (*tmk.Result, error) {
	sys, err := NewSystem(w, cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	res := sys.Run(w.Body)
	return res, w.Check()
}

// RunTrials executes a workload n times on one reused System (reset
// between trials), verifying every trial against the sequential
// reference, and returns the per-trial and aggregate results.
func RunTrials(w Workload, cfg tmk.Config, n int) (*tmk.TrialSummary, error) {
	return RunTrialsContext(context.Background(), w, cfg, n)
}

// RunTrialsContext is RunTrials with cancellation: ctx is consulted
// before each trial, so an aborted caller (a closed HTTP request, a
// Ctrl-C'd CLI) stops the remaining trials instead of running the cell
// to completion. A trial already executing runs to its end — the
// simulated processors synchronize through barriers and locks that
// cannot be torn down mid-phase — so cancellation latency is one trial.
func RunTrialsContext(ctx context.Context, w Workload, cfg tmk.Config, n int) (*tmk.TrialSummary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("apps: trial count must be positive (got %d)", n)
	}
	sys, err := NewSystem(w, cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	trials := make([]*tmk.Result, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("apps: canceled after %d/%d trials: %w", i, n, err)
		}
		trials = append(trials, sys.Run(w.Body))
		if err := w.Check(); err != nil {
			return nil, fmt.Errorf("trial %d/%d: %w", i+1, n, err)
		}
	}
	return tmk.Summarize(trials), nil
}

// Arr addresses a shared array of 64-bit words.
type Arr struct {
	Base mem.Addr
}

// At returns the address of element i.
func (a Arr) At(i int) mem.Addr { return a.Base + i*mem.WordSize }

// Mem is the memory-access interface satisfied both by *tmk.Proc (DSM
// run) and LocalMem (sequential reference run), so an application's
// algorithmic core can be written exactly once and verified bitwise.
type Mem interface {
	ReadF64(a mem.Addr) float64
	WriteF64(a mem.Addr, v float64)
	ReadI64(a mem.Addr) int64
	WriteI64(a mem.Addr, v int64)
	// Compute charges n abstract arithmetic operations to the caller's
	// virtual clock (no-op in the sequential reference, whose wall
	// clock is not simulated).
	Compute(n int)
}

// LocalMem is a plain local memory with the Mem interface, used by
// sequential reference implementations. It is a flat word array and
// shares no code with the engine's replicas, so every Check compares the
// DSM's result against memory the engine never touched.
type LocalMem struct {
	words []uint64
}

// NewLocalMem returns a zeroed local memory of at least size bytes,
// rounded up to a page multiple.
func NewLocalMem(size int) *LocalMem {
	return &LocalMem{words: make([]uint64, mem.RoundUpPages(size)>>mem.WordShift)}
}

// ReadF64 implements Mem.
func (m *LocalMem) ReadF64(a mem.Addr) float64 {
	return math.Float64frombits(m.words[a>>mem.WordShift])
}

// WriteF64 implements Mem.
func (m *LocalMem) WriteF64(a mem.Addr, v float64) { m.words[a>>mem.WordShift] = math.Float64bits(v) }

// ReadI64 implements Mem.
func (m *LocalMem) ReadI64(a mem.Addr) int64 { return int64(m.words[a>>mem.WordShift]) }

// WriteI64 implements Mem.
func (m *LocalMem) WriteI64(a mem.Addr, v int64) { m.words[a>>mem.WordShift] = uint64(v) }

// Compute implements Mem (no-op locally).
func (m *LocalMem) Compute(int) {}

// Band splits n items into nearly equal contiguous chunks and returns
// the half-open range of chunk p of procs.
func Band(n, procs, p int) (lo, hi int) {
	per := n / procs
	rem := n % procs
	lo = p*per + min(p, rem)
	hi = lo + per
	if p < rem {
		hi++
	}
	return lo, hi
}

// CheckEqual compares a parallel output with its sequential reference
// element by element with !=, so a NaN never matches. The error names
// what differs ("jacobi: cell" gives "jacobi: cell 7 = 1, want 2"); a
// length mismatch, such as an output that was never captured, is an
// error too.
func CheckEqual[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s count = %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s %d = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// Close reports whether got is within tol of want, relative to want's
// magnitude, or absolutely where that is below 1.
func Close(got, want, tol float64) bool {
	return !(math.Abs(got-want) > tol*max(math.Abs(want), 1))
}

// CheckClose compares two float64s to a relative tolerance. A caller
// comparing many values tests Close first and builds what only for the
// value that fails.
func CheckClose(what string, got, want, tol float64) error {
	if !Close(got, want, tol) {
		return fmt.Errorf("%s: got %v, want %v (tol %v)", what, got, want, tol)
	}
	return nil
}
