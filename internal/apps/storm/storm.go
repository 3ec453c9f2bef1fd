// Package storm implements the write-notice storm microbenchmark used
// by the 64–1024-processor scaling sweeps. It is not one of the paper's
// eight applications: the paper's datasets keep their meaning at 8
// processors, but their communication per barrier shrinks as bands thin
// out, so they stop exercising the very costs that grow with the
// processor count. Storm holds the per-processor work constant instead:
// every episode, each processor writes one word in each of K privately
// owned pages (producing K write notices that every other processor
// must process at the barrier), then reads one word from its right
// neighbour's first page (one access miss and one data fetch per
// processor per episode).
//
// That makes the notice fan-out the dominant engine cost by design: the
// dense reference engine's acquire side does episodes × K × n² work —
// every processor visits, and records, every other processor's notices.
// The sparse engine removed that term in two steps: fault-time
// reconstruction (tmk/notices.go) took away the per-notice records but
// still walked every notice on every processor to invalidate; the
// barrier's held-unit walk (tmk's applyBarrierGrant, DESIGN.md §16) walks
// what a processor holds — here K+2 pages and the segment's never-written
// tail — against one shared index of what the episode wrote. Each episode
// is two barriers (write phase, read phase), so the program is properly
// synchronized: a read of episode e's value never runs concurrently with
// the episode e+1 writes.
package storm

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/tmk"
)

// seqMemo shares the sequential reference across workload instances of
// the same configuration (see apps.SeqMemo); Check treats the returned
// slice as read-only.
var seqMemo apps.SeqMemo[[]int64]

// Config selects the dataset.
type Config struct {
	PagesPerProc int // K: pages (= 4 KB units) each processor owns and rewrites
	Episodes     int // E: write-barrier-read-barrier rounds
	Procs        int
}

// App is one storm instance.
type App struct {
	cfg  Config
	data apps.Arr
	sums []int64 // per-processor read checksums, indexed by processor id
}

// New returns a storm workload.
func New(cfg Config) *App {
	if cfg.PagesPerProc <= 0 {
		cfg.PagesPerProc = 4
	}
	if cfg.Episodes <= 0 {
		cfg.Episodes = 8
	}
	return &App{cfg: cfg}
}

// SegmentBytes implements apps.Workload.
func (a *App) SegmentBytes() int {
	return a.cfg.Procs * a.cfg.PagesPerProc * mem.PageSize
}

// Locks implements apps.Workload.
func (a *App) Locks() int { return 0 }

// Prepare implements apps.Workload.
func (a *App) Prepare(sys *tmk.System) {
	a.data = apps.Arr{Base: sys.AllocPages(a.cfg.Procs * a.cfg.PagesPerProc)}
	a.sums = make([]int64, a.cfg.Procs)
}

// wordOf returns the word index of processor i's page k marker.
func (a *App) wordOf(i, k int) int {
	return (i*a.cfg.PagesPerProc + k) * mem.WordsPerPage
}

// val is the deterministic marker processor i writes into page k during
// episode e.
func (a *App) val(i, k, e int) int64 {
	return int64(i)*1_000_003 + int64(k)*1_009 + int64(e) + 1
}

// writePhase and readPhase are the algorithmic core, shared by the DSM
// body and the sequential reference: processor i's episode-e writes,
// and — after the write phase — its neighbour read.
func (a *App) writePhase(m apps.Mem, arr apps.Arr, i, e int) {
	for k := 0; k < a.cfg.PagesPerProc; k++ {
		m.WriteI64(arr.At(a.wordOf(i, k)), a.val(i, k, e))
		m.Compute(2)
	}
}

func (a *App) readPhase(m apps.Mem, arr apps.Arr, i, e int) int64 {
	m.Compute(1)
	return m.ReadI64(arr.At(a.wordOf((i+1)%a.cfg.Procs, 0)))
}

// Body implements apps.Workload.
func (a *App) Body(p *tmk.Proc) {
	i := p.ID()
	var sum int64
	for e := 0; e < a.cfg.Episodes; e++ {
		a.writePhase(p, a.data, i, e)
		p.Barrier()
		sum += a.readPhase(p, a.data, i, e)
		p.Barrier()
	}
	a.sums[i] = sum
}

// Sequential replays the program sequentially — all write phases of an
// episode, then all reads — on a local memory and returns every
// processor's checksum.
func (a *App) Sequential() []int64 {
	m := apps.NewLocalMem(a.cfg.Procs * a.cfg.PagesPerProc * mem.PageSize)
	arr := apps.Arr{Base: 0}
	want := make([]int64, a.cfg.Procs)
	for e := 0; e < a.cfg.Episodes; e++ {
		for i := 0; i < a.cfg.Procs; i++ {
			a.writePhase(m, arr, i, e)
		}
		for i := 0; i < a.cfg.Procs; i++ {
			want[i] += a.readPhase(m, arr, i, e)
		}
	}
	return want
}

// Check implements apps.Workload: every processor's checksum must equal
// the sequential reference's.
func (a *App) Check() error {
	want := seqMemo.Get(fmt.Sprintf("%+v", a.cfg), a.Sequential)
	return apps.CheckEqual("storm: checksum of proc", a.sums, want)
}
