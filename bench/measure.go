package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one fixed list of work the benchmark repeats in rounds.
type workload interface {
	// setup builds the inputs from the seed and starts what the rounds
	// need. The warm-up rounds that follow it belong to set-up too.
	setup(seed int64) error
	// units is the number of cells (or requests) one round completes.
	units() int
	// prepare generates round i's inputs, outside the timed part.
	prepare(i int)
	// round runs the work list once. With a nil recorder it goes
	// through the same entry point a user of the system calls; with a
	// recorder the benchmark makes the per-layer calls itself so that
	// it can put a span around each (recorded only while rec.on).
	round(i int, rec *recorder) roundResult
	// verify runs, after the timed rounds, the checks that need all of
	// them or that would disturb what they measure.
	verify() roundResult
	// digest hashes the simulated totals that must not depend on the
	// host, the seed or the commit's speed.
	digest() string
	layer() *layerCounts
	close()
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the timed
// part the round counts below were sized for on the 2-vCPU sandbox.
const runSeconds = 24

// warmupRounds end every set-up. They are numbered -1, -2, -3; the
// first fixes the reference totals every later round is checked against.
const (
	warmupRounds = 3
	firstWarmup  = -1
)

type workloadDef struct {
	name   string
	on     owners
	rounds int
	make   func(quick bool) workload
}

// workloads is every workload with the number of timed rounds one run
// makes. The count is fixed, not a time budget, so that two hosts or two
// commits time the same work: paper-grid ~1.1 s a round, net-sweep ~1.9 s
// (16 is the fewest rounds a median is taken over), scale-256 ~1.1 s,
// serve-mix ~1.1 s.
var workloads = []workloadDef{
	{"paper-grid", onPaper, 20, func(q bool) workload { return &paperGrid{quick: q} }},
	{"net-sweep", onNet, 16, func(q bool) workload { return &netSweep{quick: q} }},
	{"scale-256", onScale, 20, func(q bool) workload { return &scale256{quick: q} }},
	{"serve-mix", onServe, 20, func(q bool) workload { return &serveMix{quick: q} }},
}

var workloadNames = func() (names []string) {
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}()

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// digestHash is a small wrapper so callers can Fprintf into a hash.
type digestHash struct{ hash.Hash }

func newDigest() digestHash      { return digestHash{sha256.New()} }
func (d digestHash) sum() string { return hex.EncodeToString(d.Sum(nil))[:16] }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spinMS times a fixed integer loop on one core. Taken before and after
// a workload it does not correct anything; it lets a reader recognise a
// run made while the host was disturbed.
func spinMS() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if ms := float64(time.Since(start)) / 1e6; rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

var spinSink uint64

// stolenTime is how long the hypervisor has kept this machine's virtual
// processors from running while they had work, summed over processors
// (the steal column of /proc/stat, in ticks of 10 ms). It is 0 where the
// kernel does not say.
func stolenTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// roundSample is the cost of one timed round.
type roundSample struct {
	WallNS  int64 `json:"wall_ns"`
	CPUNS   int64 `json:"cpu_ns"`
	StealNS int64 `json:"steal_ns"`
}

// wall and cpu are the round's cost in seconds with the stolen time
// taken out. The sandbox is a virtual machine whose neighbours take 0 to
// 10 % of its processors for minutes at a time; the guest bills that time
// to whatever thread was on the processor, so it is in the round's wall
// and CPU time although the program did nothing with it. Nothing else
// runs while the benchmark does, so all of it was taken from the
// benchmark. Taking it out halves the spread between runs on net-sweep
// and scale-256 (README, Steadiness). At most half a round is taken out.
func (r roundSample) wall() float64 { return float64(r.WallNS-min(r.StealNS, r.WallNS/2)) / 1e9 }
func (r roundSample) cpu() float64  { return float64(r.CPUNS-min(r.StealNS, r.CPUNS/2)) / 1e9 }

// measured is what the timed rounds of one run produced.
type measured struct {
	Rounds     []roundSample
	Attempted  int
	Failed     int
	Notes      []string
	AllocBytes uint64
	Mallocs    uint64
	Units      int // total over the timed rounds
}

// warmUp runs the untimed rounds that end set-up: the caches, the heap
// and the reference totals are what the first timed round will find.
func warmUp(w workload, rounds int) error {
	for i := firstWarmup; i > firstWarmup-rounds; i-- {
		w.prepare(i)
		if r := w.round(i, nil); r.failed > 0 {
			return fmt.Errorf("warm-up round %d failed: %v", i, r.notes)
		}
	}
	return nil
}

// measure runs the workload's round the given number of times, timing
// each round on its own. Between rounds, outside the timed part, the
// heap is collected so that every round starts from the same runtime
// state and one round's garbage is not billed to the next. With a
// recorder, every other round is recorded, starting with the first.
func measure(w workload, rounds int, rec *recorder) measured {
	var m measured
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if rec != nil {
			rec.on = i%2 == 0
		}
		w.prepare(i)
		steal0, cpu0, t0 := stolenTime(), cpuTime(), time.Now()
		r := w.round(i, rec)
		m.Rounds = append(m.Rounds, roundSample{
			WallNS: int64(time.Since(t0)), CPUNS: int64(cpuTime() - cpu0), StealNS: int64(stolenTime() - steal0),
		})
		m.Attempted += r.attempted
		m.Failed += r.failed
		m.Units += w.units()
		for _, n := range r.notes {
			if len(m.Notes) < 5 {
				m.Notes = append(m.Notes, n)
			}
		}
		runtime.ReadMemStats(&after)
		m.AllocBytes += after.TotalAlloc - before.TotalAlloc
		m.Mallocs += after.Mallocs - before.Mallocs
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	return m
}
