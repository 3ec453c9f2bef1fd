// Package tmk implements the TreadMarks-style software DSM engine the
// paper evaluates: lazy release consistency with vector timestamps, an
// invalidate protocol driven by write notices, a multiple-writer protocol
// based on twinning and word-granularity diffing, locks and barriers with
// piggybacked consistency information, static consistency units of 1–n
// VM pages, and the paper's §4 dynamic page-group aggregation.
//
// Processors are goroutines with private replicas and virtual clocks; the
// protocol messages they exchange are recorded and priced by
// internal/simnet. See DESIGN.md for the substitution argument.
package tmk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/aggregate"
	"repro/internal/instrument"
	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Config describes one DSM instance.
type Config struct {
	// Procs is the number of simulated processors (the paper uses 8).
	Procs int
	// SegmentBytes is the shared-segment size; rounded up to a page
	// multiple and, further, to a unit multiple.
	SegmentBytes int
	// UnitPages is the static consistency unit in 4 KB pages: 1, 2, or
	// 4 in the paper's experiments. Write detection, twinning, write
	// notices, and invalidation all operate at this granularity.
	UnitPages int
	// Dynamic enables the §4 dynamic aggregation algorithm. Requires
	// UnitPages == 1 (the algorithm aggregates VM pages).
	Dynamic bool
	// Locks is the number of global locks to provision.
	Locks int
	// Protocol selects the coherence protocol by registry name
	// (case-insensitive). Empty selects DefaultProtocol ("homeless",
	// the paper's TreadMarks protocol); "home" selects home-based LRC;
	// "adaptive" starts every unit homeless and switches units between
	// homeless and home at barriers, driven by each unit's writer-count
	// signature. See ProtocolNames for the full set.
	Protocol string
	// Placement selects the home-placement policy by registry name
	// (case-insensitive): "rr" (round-robin, the paper-era default),
	// "block" (contiguous unit ranges), "firsttouch" (home = the
	// unit's causally first writer, bound at the first barrier after
	// the first write), or "migrate" (JIAJIA-style: the home chases
	// the dominant writer at each barrier, with the state transfer
	// priced on the wire). Only home units ("home", "adaptive")
	// consult homes; under "homeless" the policy is inert.
	// See PlacementNames for the full set.
	Placement string
	// Scale selects the engine's scaling representation
	// (case-insensitive). "sparse" (the default) stores interval
	// timestamps as epoch-relative sparse stamps, drives acquire/barrier
	// deltas from deviation lists instead of O(nprocs) scans —
	// observationally identical to "dense" (wire counts are
	// bit-identical; the golden tests pin this) but asymptotically faster
	// at 64–1024 processors. "dense" is the reference implementation: one
	// dense vector clone per interval, entrywise scans. Both back
	// replicas with lazily materialized page frames (mem.Replica).
	Scale string
	// Barrier selects the barrier fabric by registry name
	// (case-insensitive; see BarrierNames). "central" (the default) is
	// the paper's flat TreadMarks barrier — n simultaneous arrivals at a
	// manager — and the 8-proc golden reference. "tree" combines
	// arrivals up (and fans releases down) a BarrierRadix-ary tree of
	// processors, every hop priced as a real message: on the contended
	// network models this turns n simultaneous bus arrivals into
	// log-depth waves.
	Barrier string
	// BarrierRadix is the tree barrier's fan-in (children per node).
	// Zero selects DefaultBarrierRadix; ignored by "central".
	BarrierRadix int
	// Network selects the interconnect timing model by registry name
	// (case-insensitive; see netmodel.Names). Empty selects "ideal",
	// the paper's flat contention-free cost arithmetic; "bus" and
	// "switch" add occupancy-based queuing, and the presets ("atm",
	// "myrinet", "10gbe") scale the platform's latency, bandwidth, and
	// software overhead.
	Network string
	// Cost overrides the communication cost model; zero value selects
	// sim.DefaultCostModel.
	Cost *sim.CostModel
	// Collect enables the §5.3 instrumentation (word-level usefulness,
	// false-sharing signature). Off, the run is faster and Stats only
	// carries raw message/byte counts.
	Collect bool
	// Sink, when non-nil, captures every Run: its Begin/RunEnd bracket
	// each Run, and between them it sees every priced message in
	// pricing order plus the engine lifecycle events (barriers, locks,
	// faults, protocol switches, home moves). A *trace.MemSink keeps the
	// run for replay-derivation; a trace.Writer's Sink writes each run
	// to a JSONL stream as it ends. Capture forces the network's send
	// paths through the pricing lock, so leave it nil on
	// performance-measurement runs.
	Sink trace.Sink
}

// Resolve returns c with every default filled in and every axis name in
// canonical form (registry.Registry.Canonical). It is the one place a
// configuration gets either: NewSystem runs on the resolved form, and a
// resolved configuration resolves to itself. An invalid value is a
// *registry.Error whose Field names it as a service spec does
// ("protocol", "barrier_radix", ...).
func (c Config) Resolve() (Config, error) {
	if c.Procs <= 0 {
		c.Procs = 8
	}
	if c.UnitPages <= 0 {
		c.UnitPages = 1
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = mem.PageSize
	}
	if c.Dynamic && c.UnitPages != 1 {
		return Config{}, invalid("unit_pages", "dynamic aggregation requires UnitPages == 1 (got %d)", c.UnitPages)
	}
	var err error
	if c.Protocol, err = protocols.Canonical(c.Protocol); err != nil {
		return Config{}, err
	}
	if c.Network, err = netmodel.Canonical(c.Network); err != nil {
		return Config{}, err
	}
	if c.Placement, err = placements.Canonical(c.Placement); err != nil {
		return Config{}, err
	}
	if c.Scale, err = scales.Canonical(c.Scale); err != nil {
		return Config{}, err
	}
	if c.Barrier, err = barriers.Canonical(c.Barrier); err != nil {
		return Config{}, err
	}
	// Filled under "central" too, where it is inert: the capture's run
	// metadata records it.
	switch {
	case c.BarrierRadix == 0:
		c.BarrierRadix = DefaultBarrierRadix
	case c.BarrierRadix < 2:
		return Config{}, invalid("barrier_radix", "barrier radix must be at least 2, or 0 for the default (got %d)", c.BarrierRadix)
	}
	return c, nil
}

func invalid(field, format string, args ...any) error {
	return &registry.Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Scale mode names (Config.Scale).
const (
	ScaleSparse = "sparse"
	ScaleDense  = "dense"
)

// DefaultScale is the default engine representation.
const DefaultScale = ScaleSparse

// scales is the scale axis; a name's value reports whether it selects
// the sparse representation.
var scales = registry.New("scale", "scale mode", DefaultScale, map[string]bool{
	ScaleSparse: true,
	ScaleDense:  false,
})

// ScaleNames returns the scale mode names, sorted.
func ScaleNames() []string { return scales.Names() }

// UnitBytes returns the consistency-unit size in bytes.
func (c Config) UnitBytes() int { return c.UnitPages * mem.PageSize }

// System is one DSM instance: the shared segment, the processors, the
// synchronization objects, and the run-wide accounting.
type System struct {
	cfg   Config
	cost  sim.CostModel
	net   *simnet.Network
	store *lrc.Store
	col   *instrument.Collector

	// The protocol, per unit: unitHome[u] says whether unit u is served
	// by its home or by its writers (protocol.go). Static protocols set
	// every bit alike; "adaptive" starts every unit homeless and flips
	// bits at barriers through policy.
	unitHome []bool
	policy   *adaptivePolicy

	// The home-placement layer: homeTable[u] is unit u's current home
	// processor (consulted only for home units), placement the policy
	// that assigned it, and rehome whether barriers let the policy move
	// homes mid-run (units may be home and the policy may move homes;
	// see rehomeUnit). lastBarrierVT is the previous barrier's merged
	// vector time — the lower bound of the episode delta every grant and
	// the decision pass share (finishEpisode).
	placement     Placement
	homeTable     []int32
	rehome        bool
	lastBarrierVT vc.Time
	nRehomes      int
	nRehomeBytes  int

	// A barrier episode's shared state, written inside the gate — the
	// arrivals merge into arrivals, the last one counts the episode and
	// stores its grant — and read by every processor while it consumes
	// that grant. finishEpisode's storage: the episode's causally sorted
	// intervals and its index (indexEpisode): epWriter is indexed by
	// unit and stamped with the episode number, so that nothing is
	// cleared between episodes; when barriers decide units, epUnits
	// lists the written units and epRuns holds their runs. procScratch
	// is the decision pass's per-processor tally (decides only).
	arrivals    *vc.Tracked
	episode     int // 1-based count of completed barrier episodes
	epGrant     barrierGrant
	seqScratch  []int32
	epDelta     []*lrc.Interval
	epWriter    []unitWriter
	epUnits     []int32
	epRuns      []*lrc.Interval
	procScratch []int32

	// barrierHook, when set (tests only), runs on each processor after it
	// consumed a barrier grant: whether it took the held-unit walk, and
	// how many list entries the walk it took had.
	barrierHook func(p *Proc, heldWalk bool, visited int)

	// twinHook, when set (tests only, before Run), keeps the
	// twin-then-compare write detection the write sets replaced running
	// beside them: every write fault also twins each page of the unit in
	// full, and closeInterval hands the hook each page's twin and the diff
	// the write set gave, on the processor's goroutine.
	twinHook func(p *Proc, page int, twin mem.Twin, d mem.Diff)

	segBytes int
	numPages int
	numUnits int
	allocOff int
	running  bool
	ran      bool
	released bool
	// sparse caches whether cfg.Scale selects the sparse clock
	// representation, which every stamp, merge and episode delta
	// consults.
	sparse bool

	procs   []*Proc
	barrier barrierFabric
	locks   []*lock
	// gate owns every lock and barrier wait of a run, and puts the lock
	// operations in virtual-time order.
	gate gate

	// barrierLog records each barrier episode's merged vector time, in
	// episode order, when Collect is set — the observable the
	// barrier-equivalence tests compare across fabrics. Appended by the
	// episode-completing processor while every other processor is
	// blocked, so reads after Run are race-free.
	barrierLog []vc.Time

	// trc is the active Run's trace sink, the Config's Sink (nil when
	// not tracing). Set before the processor goroutines start and
	// cleared after they join, so processor-side reads are race-free;
	// hot paths pay one nil check.
	trc trace.Sink

	// tune is the calibrated constants this System runs on (tuning).
	tune tuning

	// homeCheck, when set (tests only, before Run), follows the home
	// units for an oracle (see homeChecker).
	homeCheck homeChecker

	// noticeCheck, when set (tests only, before Run), follows the write
	// notices for an oracle (see noticeChecker).
	noticeCheck noticeChecker
}

// homeChecker follows the home units: flushed sees each diff a home
// release flushes, on the releasing processor's goroutine before the
// interval is published; handoff sees each unit the adaptive policy
// switches homeless→home, inside the barrier gate, before the switch is
// priced; image sees each page a home fetch refreshed, as the fetcher
// holds it after the fetch, with the fetcher's vector time.
type homeChecker interface {
	flushed(p *Proc, pd lrc.PageDiff)
	handoff(u int, merged vc.Time)
	image(page int, vt vc.Time, got []byte)
}

// noticeChecker follows the write notices, on the processor's
// goroutine: delta sees every delta p consumes — each lock grant's, and
// each barrier episode's whichever walk the grant takes — before p's
// vector time moves; fetched sees each unit's missing-write list
// missingInto rebuilds at a fault.
type noticeChecker interface {
	delta(p *Proc, ivs []*lrc.Interval)
	fetched(p *Proc, u int, miss []*lrc.Interval)
}

// tuning holds the engine's calibrated constants: the §4 group bound
// (DESIGN.md §4) and the adaptive protocol's hysteresis and contention
// gate (§8), and a switch that turns the held-unit barrier walk off.
// Every System runs on the constants with the walk on; tests build one
// on other values (newSystem) to ablate them.
type tuning struct {
	groupPages int // zero: aggregate.DefaultMaxPages
	hysteresis int // zero: switchHysteresis
	// gate, when set, replaces the cost model's contention gate
	// (sim.CostModel.Contended) with its own verdict.
	gate func(queue sim.Duration, msgs int64) bool
	// fullBarrierWalk makes every barrier grant walk the episode's
	// delta instead of the held units (tests compare the two walks).
	fullBarrierWalk bool
}

// NewSystem builds a DSM instance. The shared segment starts zeroed and
// valid (ReadOnly) on every processor, as after TreadMarks startup.
// An invalid configuration (dynamic aggregation with multi-page units)
// is reported as an error, never a panic.
func NewSystem(cfg Config) (*System, error) { return newSystem(cfg, tuning{}) }

// newSystem is NewSystem on tune's overrides of the calibrated
// constants; a zero field keeps its constant.
func newSystem(cfg Config, tune tuning) (*System, error) {
	if tune.groupPages == 0 {
		tune.groupPages = aggregate.DefaultMaxPages
	}
	if tune.hysteresis == 0 {
		tune.hysteresis = switchHysteresis
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, fmt.Errorf("tmk: %w", err)
	}
	cost := sim.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	model, err := netmodel.New(cfg.Network, cost)
	if err != nil {
		return nil, fmt.Errorf("tmk: %w", err)
	}
	segBytes := mem.RoundUpPages(cfg.SegmentBytes)
	// Round up to a whole number of units so every unit is full.
	ub := cfg.UnitPages * mem.PageSize
	segBytes = (segBytes + ub - 1) / ub * ub

	s := &System{
		cfg:      cfg,
		cost:     cost,
		tune:     tune,
		segBytes: segBytes,
		numPages: segBytes / mem.PageSize,
		sparse:   scales.Get(cfg.Scale),
		locks:    make([]*lock, cfg.Locks),
	}
	s.numUnits = s.numPages / cfg.UnitPages
	s.build(model)
	s.procs = make([]*Proc, cfg.Procs)
	for p := range s.procs {
		s.procs[p] = newProc(s, p)
	}
	return s, nil
}

// Reset returns the system to its post-NewSystem state — zeroed
// replicas, ReadOnly page tables, fresh vector clocks, and everything
// build installs — while keeping the shared-memory layout (allocations
// survive). It is the foundation of multi-trial benchmarking: Prepare
// once, then Run independent trials on one instance.
func (s *System) Reset() {
	if s.running {
		panic("tmk: Reset during Run")
	}
	if s.released {
		panic("tmk: Reset of a released System")
	}
	model := s.net.Model()
	model.Reset()
	s.build(model)
	for _, p := range s.procs {
		p.reset()
	}
}

// build installs what a run starts from, over the given (fresh or
// reset) network model: zeroed network counters, an empty interval
// store (a reset one keeps its storage), the placement policy and its
// home table, the units' home bits, an empty episode index, a fresh
// instrument collector, the barrier fabric and the locks. NewSystem and
// Reset both call it, so a reset System is a freshly built one by
// construction.
func (s *System) build(model netmodel.Model) {
	s.net = simnet.NewWithModel(s.cost, model)
	if s.store == nil {
		s.store = lrc.NewStore(s.cfg.Procs)
		s.store.Reserve(s.numUnits)
	} else {
		s.store.Reset()
	}
	// The rehoming step is enabled only when units may be home and the
	// placement policy can actually move homes — under "rr"/"block"
	// barriers pay nothing for the placement layer.
	s.placement = placements.Get(s.cfg.Placement)(s.cfg.Procs, s.numUnits)
	s.homeTable = make([]int32, s.numUnits)
	for u := range s.homeTable {
		s.homeTable[u] = int32(s.placement.InitialHome(u))
	}
	s.lastBarrierVT = vc.New(s.cfg.Procs)
	s.nRehomes, s.nRehomeBytes = 0, 0
	mode := protocols.Get(s.cfg.Protocol)
	s.unitHome = slices.Repeat([]bool{mode.home}, s.numUnits)
	s.policy = nil
	if mode.adaptive {
		s.policy = newAdaptivePolicy(s.numUnits)
	}
	s.rehome = (mode.home || mode.adaptive) && s.placement.MayRehome()

	// Episode numbers restart with the fabric: stamps of the run that
	// ended would read as this run's.
	if s.epWriter == nil {
		s.epWriter = make([]unitWriter, s.numUnits)
	}
	if s.procScratch == nil && s.decides() {
		s.procScratch = make([]int32, s.cfg.Procs)
	}
	clear(s.epWriter)
	clear(s.epDelta)
	clear(s.epRuns)
	s.epDelta, s.epRuns = s.epDelta[:0], s.epRuns[:0]

	if s.cfg.Collect {
		s.col = instrument.NewCollector(s.cfg.Procs, s.segBytes)
	}
	s.barrier = barriers.Get(s.cfg.Barrier)(s)
	s.arrivals, s.episode, s.epGrant = vc.NewTracked(s.cfg.Procs), 0, barrierGrant{}
	s.barrierLog = s.barrierLog[:0]
	for i := range s.locks {
		s.locks[i] = newLock(i, i%s.cfg.Procs)
	}
	s.gate.reset(s.cfg.Procs)
	s.ran = false
}

// Release ends the System's life: every processor's page-sized storage
// (replica frames, write-set buffers, diff-slab chunks) goes to mem's
// recycler for the next System to take, and the interval store and
// what points into it are dropped. Call it once the workload has been checked (a Result stays
// valid); a second call does nothing, and Run or Reset afterwards panic.
// A System that is never released is simply collected.
func (s *System) Release() {
	if s.running {
		panic("tmk: Release during Run")
	}
	if s.released {
		return
	}
	s.released = true
	s.store, s.policy, s.col = nil, nil, nil
	for _, p := range s.procs {
		p.release()
	}
}

// Config returns the (filled-in) configuration.
func (s *System) Config() Config { return s.cfg }

// homeOf returns the processor currently homing unit u. The home table
// is only mutated while every processor is blocked in a barrier (see
// moveHome), so reads on processor goroutines are race-free.
func (s *System) homeOf(u int) int { return int(s.homeTable[u]) }

// sparseMode reports whether the engine runs the sparse representation
// (epoch-relative stamps, deviation-driven deltas).
func (s *System) sparseMode() bool { return s.sparse }

// BarrierLog returns the merged vector time of every completed barrier
// episode, in order. Recorded only when Config.Collect is set; valid
// after Run returns. The log is identical across barrier fabrics — the
// equivalence the tree-barrier tests pin.
func (s *System) BarrierLog() []vc.Time { return s.barrierLog }

// PageStates returns a copy of processor p's page table, one protection
// state per consistency unit. Valid after Run returns — what the
// dense/sparse equivalence tests compare beside the wire totals.
func (s *System) PageStates(p int) []mem.PageState {
	pt := s.procs[p].pt
	out := make([]mem.PageState, pt.NumPages())
	for u := range out {
		out[u] = pt.State(u)
	}
	return out
}

// SegmentBytes returns the rounded shared-segment size.
func (s *System) SegmentBytes() int { return s.segBytes }

// NumPages returns the number of 4 KB pages in the segment.
func (s *System) NumPages() int { return s.numPages }

// NumUnits returns the number of consistency units in the segment.
func (s *System) NumUnits() int { return s.numUnits }

// TryAlloc reserves n bytes of shared memory (8-byte aligned) and
// returns the base address. Allocation is a pre-run, single-threaded
// operation, mirroring TreadMarks' Tmk_malloc performed before the
// parallel phase. Exhausting the segment is reported as an error.
func (s *System) TryAlloc(n int) (mem.Addr, error) {
	if s.running {
		return 0, fmt.Errorf("tmk: Alloc during Run")
	}
	if n < 0 {
		return 0, fmt.Errorf("tmk: Alloc of negative size %d", n)
	}
	base := (s.allocOff + mem.WordSize - 1) &^ (mem.WordSize - 1)
	if base+n > s.segBytes {
		return 0, fmt.Errorf("tmk: out of shared memory (%d + %d > segment %d)", base, n, s.segBytes)
	}
	s.allocOff = base + n
	return base, nil
}

// Alloc is TryAlloc for pre-validated callers; it panics on exhaustion.
func (s *System) Alloc(n int) mem.Addr {
	a, err := s.TryAlloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// TryAllocPages reserves n whole pages aligned to a unit boundary and
// returns the base address. Applications use this to control the layout
// effects the paper studies.
func (s *System) TryAllocPages(n int) (mem.Addr, error) {
	if s.running {
		return 0, fmt.Errorf("tmk: AllocPages during Run")
	}
	if n < 0 {
		return 0, fmt.Errorf("tmk: AllocPages of negative count %d", n)
	}
	ub := s.cfg.UnitBytes()
	base := (s.allocOff + ub - 1) / ub * ub
	if base+n*mem.PageSize > s.segBytes {
		return 0, fmt.Errorf("tmk: out of shared memory (%d pages over segment %d)", n, s.segBytes)
	}
	s.allocOff = base + n*mem.PageSize
	return base, nil
}

// AllocPages is TryAllocPages for pre-validated callers; it panics on
// exhaustion.
func (s *System) AllocPages(n int) mem.Addr {
	a, err := s.TryAllocPages(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Proc returns processor p's handle (valid only inside Run's body on
// that processor's goroutine).
func (s *System) Proc(p int) *Proc { return s.procs[p] }

// Result is the outcome of one Run.
type Result struct {
	// Time is the simulated execution time: the maximum processor
	// clock at the end of the run.
	Time sim.Duration
	// ProcTimes are the per-processor final clocks.
	ProcTimes []sim.Duration
	// Messages and Bytes are raw network totals.
	Messages int
	Bytes    int
	// Network names the interconnect timing model the run was priced
	// on, and QueueDelay is the cumulative contention delay its
	// messages experienced (always zero on "ideal").
	Network    string
	QueueDelay sim.Duration
	// Stats carries the §5.3 classification; nil unless Config.Collect.
	Stats *instrument.Stats
	// Faults, Twins, DiffsEncoded, Intervals aggregate engine events.
	Faults       int
	Twins        int
	DiffsEncoded int
	Intervals    int
	// Adaptive-protocol accounting (zero under static protocols):
	// SwitchedUnits counts the units that changed protocol at least
	// once, ProtocolSwitches the total switch events, UnitSwitches the
	// per-unit switch counts (switched units only), and HomeUnits the
	// units that are home at the end of the run.
	SwitchedUnits    int
	ProtocolSwitches int
	UnitSwitches     map[int]int
	HomeUnits        int
	// Placement names the home-placement policy of the run; Rehomes
	// counts the home moves it made after construction (first-touch
	// bindings, migrations, and adaptive home seedings under a mobile
	// policy), and RehomeBytes the wire bytes of the priced home-state
	// transfers among them. HandoffBytes is the wire total of the
	// adaptive protocol's homeless→home image pulls (zero under a
	// mobile placement, whose switches migrate the home instead).
	Placement    string
	Rehomes      int
	RehomeBytes  int
	HandoffBytes int
}

// Digest returns the hex SHA-256 of a fixed little-endian encoding of
// the run's results: the clocks, network totals, engine event counts,
// adaptive and placement accounting, and the §5.3 Stats when collected,
// with map entries in key order. Network and Placement are left out:
// they name the configuration, which keys a result rather than being
// one, so runs that differ only in representation (dense and sparse
// clocks) share a digest. Equal digests mean equal behaviour.
func (r *Result) Digest() string {
	b := make([]byte, 0, 8*(32+len(r.ProcTimes)+2*len(r.UnitSwitches)))
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	put(int64(r.Time), int64(len(r.ProcTimes)))
	for _, t := range r.ProcTimes {
		put(int64(t))
	}
	put(int64(r.Messages), int64(r.Bytes), int64(r.QueueDelay))
	put(int64(r.Faults), int64(r.Twins), int64(r.DiffsEncoded), int64(r.Intervals))
	put(int64(r.SwitchedUnits), int64(r.ProtocolSwitches), int64(r.HomeUnits), int64(len(r.UnitSwitches)))
	for _, u := range slices.Sorted(maps.Keys(r.UnitSwitches)) {
		put(int64(u), int64(r.UnitSwitches[u]))
	}
	put(int64(r.Rehomes), int64(r.RehomeBytes), int64(r.HandoffBytes))
	if s := r.Stats; s != nil {
		put(1, int64(s.Messages.Useful), int64(s.Messages.Useless),
			int64(s.UsefulBytes), int64(s.UselessBytes), int64(s.PiggybackedBytes), int64(s.TotalWireBytes),
			int64(s.Faults), int64(s.ZeroFetchFaults), int64(s.Exchanges), int64(len(s.Signature)))
		for _, w := range slices.Sorted(maps.Keys(s.Signature)) {
			sb := s.Signature[w]
			put(int64(w), int64(sb.Writers), int64(sb.Faults), int64(sb.UsefulMsgs), int64(sb.UselessMsgs))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Run executes body once per processor, concurrently, and returns the
// run's accounting. A System is reusable: calling Run again first
// Resets it, so every call is an independent trial over the same
// shared-memory layout. A run that deadlocks — every processor that has
// not returned waits for a lock or in a barrier — panics on the caller's
// goroutine with one line per waiting processor (see deadlock).
func (s *System) Run(body func(p *Proc)) *Result {
	if s.running {
		panic("tmk: Run reentered")
	}
	if s.released {
		panic("tmk: Run on a released System")
	}
	if s.ran {
		s.Reset()
	}
	if s.cfg.Sink != nil {
		cost := s.cost
		s.cfg.Sink.Begin(trace.RunMeta{
			Protocol:     s.cfg.Protocol,
			Network:      s.net.Model().Name(),
			Placement:    s.cfg.Placement,
			Procs:        s.cfg.Procs,
			UnitPages:    s.cfg.UnitPages,
			Dynamic:      s.cfg.Dynamic,
			Barrier:      s.cfg.Barrier,
			BarrierRadix: s.cfg.BarrierRadix,
			Cost:         &cost,
		})
		s.trc = s.cfg.Sink
		s.net.SetTraceSink(s.trc)
	}
	s.running = true
	var wg sync.WaitGroup
	for _, p := range s.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			body(p)
			s.gate.finish(p.id)
			// Close any open interval so final writes are published
			// (no one fetches them, but accounting stays honest).
			p.closeInterval()
		}(p)
	}
	wg.Wait()
	if slices.Contains(s.gate.state, blocked) {
		s.net.SetTraceSink(nil)
		s.running, s.ran, s.trc = false, true, nil
		panic(s.deadlock())
	}

	res := &Result{ProcTimes: make([]sim.Duration, len(s.procs))}
	for i, p := range s.procs {
		res.ProcTimes[i] = p.clock.Now()
		res.Faults += p.nFaults
		res.Twins += p.nTwins
		res.DiffsEncoded += p.nDiffs
		res.Intervals += p.nIntervals
	}
	res.Time = sim.MaxClock(res.ProcTimes...)
	res.Messages, res.Bytes = s.net.Counts()
	res.Network = s.net.Model().Name()
	res.QueueDelay = s.net.QueueTotal()
	res.Placement = s.cfg.Placement
	res.Rehomes = s.nRehomes
	res.RehomeBytes = s.nRehomeBytes
	byKind := s.net.CountsByKind()
	res.HandoffBytes = byKind[simnet.HomeHandoff].Bytes
	if s.policy != nil {
		s.policy.report(res, s.unitHome)
	}
	if s.col != nil {
		data := byKind[simnet.DiffRequest].Messages + byKind[simnet.DiffReply].Messages
		res.Stats = s.col.Finalize(res.Messages, res.Bytes, data)
	}
	if s.trc != nil {
		s.trc.RunEnd(res.Time, int64(res.Messages), int64(res.Bytes), res.QueueDelay, res.ProcTimes)
		s.net.SetTraceSink(nil)
		s.trc = nil
	}
	s.running = false
	s.ran = true
	return res
}

// TrialSummary aggregates the Results of repeated independent Runs of
// one body on one System.
type TrialSummary struct {
	// Trials holds each trial's full Result, in execution order.
	Trials []*Result
	// MinTime, MeanTime, MaxTime aggregate the trials' simulated times.
	// On a stateless network model the simulation is deterministic —
	// locks are granted in virtual-time order, not in goroutine order —
	// so Min == Mean == Max there; a contended model's times may vary
	// with the order in which sends reach its queue.
	MinTime  sim.Duration
	MeanTime sim.Duration
	MaxTime  sim.Duration
	// MeanMessages and MeanBytes aggregate the trials' network totals.
	MeanMessages float64
	MeanBytes    float64
	// MeanQueueDelay aggregates the trials' network contention delay
	// (zero on the ideal model).
	MeanQueueDelay sim.Duration
}

// Summarize computes the aggregate view of a non-empty trial list.
func Summarize(trials []*Result) *TrialSummary {
	ts := &TrialSummary{Trials: trials}
	var sumTime, sumQueue sim.Duration
	for i, r := range trials {
		if i == 0 || r.Time < ts.MinTime {
			ts.MinTime = r.Time
		}
		if r.Time > ts.MaxTime {
			ts.MaxTime = r.Time
		}
		sumTime += r.Time
		sumQueue += r.QueueDelay
		ts.MeanMessages += float64(r.Messages)
		ts.MeanBytes += float64(r.Bytes)
	}
	if n := len(trials); n > 0 {
		ts.MeanTime = sumTime / sim.Duration(n)
		ts.MeanQueueDelay = sumQueue / sim.Duration(n)
		ts.MeanMessages /= float64(n)
		ts.MeanBytes /= float64(n)
	}
	return ts
}
