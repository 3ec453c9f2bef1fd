// Package dsm is the public API of this reproduction of "Tradeoffs
// Between False Sharing and Aggregation in Software Distributed Shared
// Memory" (Amza, Cox, Rajamani, Zwaenepoel — PPoPP 1997).
//
// It exposes a software DSM with a pluggable coherence layer: lazy
// release consistency with a multiple-writer protocol (twinning +
// word-granularity diffing), locks and barriers, static consistency
// units of 1–4 pages, and the paper's dynamic page-group aggregation —
// all running on a simulated 8-node cluster whose communication costs
// are calibrated to the paper's platform (see internal/sim). Three
// coherence protocols are built in and selected with WithProtocol:
// "homeless" (TreadMarks-style, the paper's protocol and the default),
// "home" (home-based LRC — fewer messages, more bytes), and "adaptive"
// (a per-unit hybrid: every consistency unit starts homeless and is
// switched between the two engines at barriers by its writer-count
// signature, with a hysteresis damping oscillation); see DESIGN.md §5
// and §8. The interconnect is equally pluggable (WithNetwork):
// "ideal" reproduces the paper's flat cost arithmetic, while "bus",
// "switch", and the preset family ("atm", "myrinet", "10gbe") make
// contention and faster networks first-class experiment axes; see
// DESIGN.md §6. Where the home-based engines keep each unit's
// authoritative copy is a third axis (WithPlacement): "rr" round-robin
// homes (the paper-era default), "block" contiguous ranges,
// "firsttouch" first-writer binding, or "migrate" (JIAJIA-style home
// migration chasing the dominant writer); see DESIGN.md §9.
//
// A System is built with functional options and validated up front —
// misconfiguration is an error, never a panic:
//
//	sys, err := dsm.New(
//		dsm.WithProcs(8),
//		dsm.WithSegmentBytes(1<<20),
//		dsm.WithCollection(true),
//	)
//	if err != nil { ... }
//	x, err := sys.Alloc(8) // one shared float64
//	res := sys.Run(func(p *dsm.Proc) {
//		if p.ID() == 0 {
//			p.WriteF64(x, 42)
//		}
//		p.Barrier()
//		_ = p.ReadF64(x)
//	})
//	fmt.Println(res.Time, res.Messages, res.Stats.Messages.Useless)
//
// A System is reusable: Run may be called repeatedly (state is reset
// between runs, allocations survive), and RunTrials executes N
// independent trials and aggregates their results — the shape real
// benchmarking needs.
//
// The eight applications of the paper's evaluation are registered by
// name in internal/apps (see apps.Names); the experiment harness that
// regenerates every table and figure is cmd/dsmbench, and any
// app × dataset × configuration × trials combination is runnable from
// cmd/dsmrun.
package dsm

import (
	"context"
	"fmt"
	"io"

	"repro/internal/instrument"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// Proc is one simulated processor's handle, valid inside Run's body.
type Proc = tmk.Proc

// Result is the outcome of a Run: simulated time, message/byte counts,
// and (with WithCollection) the paper's communication classification.
type Result = tmk.Result

// Trials is the outcome of RunTrials: per-trial Results plus
// min/mean/max aggregates.
type Trials = tmk.TrialSummary

// Config is the resolved engine configuration, readable via
// System.Config.
type Config = tmk.Config

// Stats is the §5.3 communication breakdown.
type Stats = instrument.Stats

// Addr is a byte offset into the shared segment.
type Addr = mem.Addr

// Duration is simulated time.
type Duration = sim.Duration

// CostModel holds the calibrated communication costs of the simulated
// platform.
type CostModel = sim.CostModel

// Page geometry of the simulated VM (the paper's hardware page).
const (
	PageSize = mem.PageSize
	WordSize = mem.WordSize
)

// DefaultCostModel returns the communication cost model calibrated to
// the paper's §5.1 platform measurements.
func DefaultCostModel() CostModel { return sim.DefaultCostModel() }

// Protocols returns the names of the registered coherence protocols,
// sorted: currently "adaptive" (the per-unit hybrid: units switch
// between the two static engines at barriers, driven by their
// writer-count signatures), "home" (home-based LRC: diffs flushed to a
// static home at release, misses fetch the whole unit from the home),
// and "homeless" (the paper's TreadMarks protocol: diffs stay with
// their writers, misses fetch from every concurrent writer).
func Protocols() []string { return tmk.ProtocolNames() }

// Networks returns the names of the registered interconnect timing
// models, sorted: "ideal" (the paper's flat contention-free cost
// arithmetic, the default), "bus" (shared-medium Ethernet with one
// global serialization resource), "switch" (the paper's switched
// Ethernet with per-NIC port occupancy), and the preset family ("atm",
// "myrinet", "10gbe") scaling the platform's latency, bandwidth, and
// software overhead.
func Networks() []string { return netmodel.Names() }

// Placements returns the names of the registered home-placement
// policies, sorted: "block" (contiguous unit ranges), "firsttouch"
// (home = the unit's first writer, bound at the first barrier after
// the first write), "migrate" (JIAJIA-style: the home chases the
// dominant writer at each barrier, with the state transfer priced on
// the wire), and "rr" (round-robin, the paper-era default). Placement
// decides where home-based engines keep each unit's authoritative
// copy; it has no effect under the homeless protocol.
func Placements() []string { return tmk.PlacementNames() }

// Barriers returns the names of the registered barrier fabrics,
// sorted: "central" (every arrival is one message to a single manager
// — the paper's barrier and the 8-proc golden reference) and "tree"
// (a configurable-radix combining tree: arrivals combine upward and
// releases fan downward one priced message per tree edge, turning the
// manager's n-message pile-up into log-depth waves); see DESIGN.md §13.
func Barriers() []string { return tmk.BarrierNames() }

// Scales returns the engine's vector-time representations, sorted:
// "dense" (flat O(procs) clocks, the reference) and "sparse"
// (epoch-relative interval clocks and deviation-driven deltas — the
// default, bit-identical to dense on every wire count). Everything
// else, lazily materialized replica frames included, is shared by
// both; see DESIGN.md §13.
func Scales() []string { return tmk.ScaleNames() }

// Option configures a System under construction. Options validate
// their arguments and report bad values as errors from New.
type Option func(*Config) error

// WithProcs sets the number of simulated processors (default 8, the
// paper's cluster size).
func WithProcs(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("dsm: WithProcs(%d): processor count must be positive", n)
		}
		c.Procs = n
		return nil
	}
}

// WithSegmentBytes sets the shared-segment size (default one page);
// it is rounded up to a whole number of consistency units.
func WithSegmentBytes(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("dsm: WithSegmentBytes(%d): segment size must be positive", n)
		}
		c.SegmentBytes = n
		return nil
	}
}

// WithUnitPages sets the static consistency unit in 4 KB pages. The
// paper evaluates 1, 2, and 4; any positive size is accepted.
// Incompatible with WithDynamicAggregation unless n == 1.
func WithUnitPages(n int) Option {
	return func(c *Config) error {
		if n <= 0 {
			return fmt.Errorf("dsm: WithUnitPages(%d): unit must be at least one page", n)
		}
		c.UnitPages = n
		return nil
	}
}

// WithDynamicAggregation enables the paper's §4 dynamic page-group
// aggregation. It requires the 1-page unit (the algorithm aggregates
// VM pages); combining it with WithUnitPages(n > 1) is an error from
// New.
func WithDynamicAggregation() Option {
	return func(c *Config) error {
		c.Dynamic = true
		return nil
	}
}

// WithLocks provisions n global locks (default 0).
func WithLocks(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("dsm: WithLocks(%d): lock count cannot be negative", n)
		}
		c.Locks = n
		return nil
	}
}

// WithProtocol selects the coherence protocol by name
// (case-insensitive): "homeless" — the paper's TreadMarks protocol and
// the default — "home" — home-based LRC — or "adaptive" — the per-unit
// hybrid of the two. An unknown name is an error from New listing the
// registered protocols (Protocols).
func WithProtocol(name string) Option {
	return nameOption("WithProtocol", name, func(c *Config) *string { return &c.Protocol })
}

// WithPlacement selects the home-placement policy by name
// (case-insensitive; see Placements). The default, "rr", reproduces
// the paper-era round-robin homes exactly; "block" assigns contiguous
// unit ranges, "firsttouch" binds each unit to its first writer, and
// "migrate" moves homes to each unit's dominant writer at barriers,
// pricing the home-state transfers on the wire. Consulted only by
// home-based engines (WithProtocol "home" or "adaptive"). An unknown
// name is an error from New listing the registered policies.
func WithPlacement(name string) Option {
	return nameOption("WithPlacement", name, func(c *Config) *string { return &c.Placement })
}

// WithNetwork selects the interconnect timing model by name
// (case-insensitive; see Networks). The default, "ideal", reproduces
// the paper's flat cost arithmetic; the contended models ("bus",
// "switch") add occupancy-based queuing delay, and the presets
// ("atm", "myrinet", "10gbe") rescale the platform. An unknown name is
// an error from New listing the registered models.
func WithNetwork(name string) Option {
	return nameOption("WithNetwork", name, func(c *Config) *string { return &c.Network })
}

// WithScale selects the engine's vector-time representation by name
// (case-insensitive; see Scales). The default, "sparse", carries
// vector time as a base epoch plus a deviation list — built for
// 64–1024-processor systems, and bit-identical to "dense" on every
// message and byte count (the equivalence tests pin this). "dense"
// keeps the flat O(procs) reference clocks. Both materialize replica
// frames lazily, on first touch. An unknown name is an error from New.
func WithScale(name string) Option {
	return nameOption("WithScale", name, func(c *Config) *string { return &c.Scale })
}

// WithBarrier selects the barrier fabric by name (case-insensitive;
// see Barriers). The default, "central", reproduces the paper's
// single-manager barrier exactly; "tree" combines arrivals up (and
// fans releases down) a WithBarrierRadix-ary tree of the processors,
// pricing every hop as a real message on the network model. The two
// fabrics leave identical post-barrier state — only message routing,
// and therefore timing under contention, differs. An unknown name is
// an error from New listing the registered fabrics.
func WithBarrier(name string) Option {
	return nameOption("WithBarrier", name, func(c *Config) *string { return &c.Barrier })
}

// nameOption sets the axis name field points at. The name is checked by
// resolving a configuration that holds only it, so an error blames this
// option and not an unrelated setting.
func nameOption(option, name string, field func(*Config) *string) Option {
	return func(c *Config) error {
		var only Config
		*field(&only) = name
		if _, err := only.Resolve(); err != nil {
			return fmt.Errorf("dsm: %s(%q): %w", option, name, err)
		}
		*field(c) = name
		return nil
	}
}

// WithBarrierRadix sets the tree barrier's fan-in — the number of
// children combined per tree node (default tmk.DefaultBarrierRadix).
// Ignored by the centralized fabric.
func WithBarrierRadix(n int) Option {
	return func(c *Config) error {
		if n < 2 {
			return fmt.Errorf("dsm: WithBarrierRadix(%d): fan-in must be at least 2", n)
		}
		c.BarrierRadix = n
		return nil
	}
}

// WithCostModel overrides the communication cost model (default: the
// paper's §5.1 calibration, DefaultCostModel).
func WithCostModel(cm CostModel) Option {
	return func(c *Config) error {
		cmCopy := cm
		c.Cost = &cmCopy
		return nil
	}
}

// WithCollection toggles the §5.3 instrumentation (word-level
// usefulness, false-sharing signature). Off, runs are faster and
// Result.Stats is nil.
func WithCollection(on bool) Option {
	return func(c *Config) error {
		c.Collect = on
		return nil
	}
}

// TraceWriter is a capture stream for run traces: a versioned JSONL
// event log carrying every priced protocol message in pricing order
// plus the engine's lifecycle events (barriers, locks, page faults,
// protocol switches, home moves). A run's lines appear when the run
// completes, all together under its own run id, so one TraceWriter may
// be shared by any number of Systems. Check Close (or Err) when capture
// ends: write errors are sticky and a partial trace must not pass
// silently. The capture format is replayable — see cmd/dsmtrace.
type TraceWriter = trace.Writer

// NewTraceWriter starts a trace capture stream on out (typically a
// file), writing the schema header line. The stream is unbuffered;
// wrap out in a bufio.Writer for high-rate captures and flush it
// before closing the file.
func NewTraceWriter(out io.Writer) *TraceWriter { return trace.NewWriter(out) }

// WithTrace captures every Run of the System into the given stream,
// writing each run's lines when it completes. Tracing serializes
// message pricing (it records pricing order), so leave it off for
// performance measurements.
func WithTrace(tw *TraceWriter) Option {
	return func(c *Config) error {
		if tw == nil {
			return fmt.Errorf("dsm: WithTrace(nil): trace writer must not be nil")
		}
		c.Sink = tw.Sink("", "")
		return nil
	}
}

// System is a DSM instance: shared segment, processors, locks,
// barrier. It is reusable — Run and RunTrials reset protocol state
// between executions while the shared-memory layout persists.
type System struct {
	eng *tmk.System
}

// New builds a DSM instance from the given options. Invalid options
// and invalid combinations (dynamic aggregation with multi-page units)
// are reported as errors.
func New(opts ...Option) (*System, error) {
	var cfg Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	eng, err := tmk.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Alloc reserves n bytes of shared memory (8-byte aligned) and returns
// the base address, or an error when the segment is exhausted.
// Allocation is a pre-run, single-threaded operation, mirroring
// TreadMarks' Tmk_malloc; allocations survive Reset and repeated Runs.
func (s *System) Alloc(n int) (Addr, error) { return s.eng.TryAlloc(n) }

// AllocPages reserves n whole pages aligned to a unit boundary.
// Applications use this to control the layout effects the paper
// studies.
func (s *System) AllocPages(n int) (Addr, error) { return s.eng.TryAllocPages(n) }

// Run executes body once per processor, concurrently, and returns the
// run's accounting. Calling Run again first resets protocol state, so
// every call is an independent trial over the same memory layout.
func (s *System) Run(body func(p *Proc)) *Result { return s.eng.Run(body) }

// RunTrials executes body as n independent trials and returns per-trial
// and aggregate (min/mean/max) results. Trials are independent by
// construction — each runs on its own engine built from this System's
// configuration — so they execute concurrently, bounded by GOMAXPROCS
// (one at a time under WithTrace, whose capture holds one run); results
// are reported in trial order regardless of completion order.
// On a stateless network model (ideal) the simulation is deterministic
// for lock programs as well as barrier programs — locks are granted in
// virtual-time order — so all trials report bit-identical times; a model
// with a queue prices it in the order sends reach it, so its times may
// vary. The System itself is left
// untouched (its allocations and any prior Run's state survive).
func (s *System) RunTrials(n int, body func(p *Proc)) (*Trials, error) {
	return s.RunTrialsContext(context.Background(), n, body)
}

// RunTrialsContext is RunTrials with cancellation: ctx is consulted
// before each trial starts, so an aborted caller (a closed HTTP
// request, a Ctrl-C'd CLI) skips the trials not yet launched instead of
// running them all to completion, and the call reports ctx's error. A
// trial already executing runs to its end — the simulated processors
// synchronize through barriers and locks that cannot be torn down
// mid-phase — so cancellation latency is bounded by the in-flight
// trials.
func (s *System) RunTrialsContext(ctx context.Context, n int, body func(p *Proc)) (*Trials, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsm: RunTrials needs a positive trial count (got %d)", n)
	}
	cfg := s.eng.Config()
	width := 0 // GOMAXPROCS
	if cfg.Sink != nil {
		width = 1 // a capture sink records one run at a time
	}
	tasks := make([]sweep.Task, n)
	for i := range tasks {
		tasks[i].Do = func(context.Context) (any, error) {
			eng, err := tmk.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			return eng.Run(body), nil
		}
	}
	vals, err := sweep.New(width).Run(ctx, tasks)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("dsm: RunTrials canceled: %w", ctxErr)
	}
	if err != nil {
		return nil, err
	}
	results := make([]*tmk.Result, n)
	for i, v := range vals {
		results[i] = v.(*tmk.Result)
	}
	return tmk.Summarize(results), nil
}

// Reset returns the system to its freshly built state (zeroed memory,
// empty protocol metadata, zeroed counters) while keeping allocations.
func (s *System) Reset() { s.eng.Reset() }

// Config returns the resolved (defaults filled) configuration.
func (s *System) Config() Config { return s.eng.Config() }

// SegmentBytes returns the rounded shared-segment size.
func (s *System) SegmentBytes() int { return s.eng.SegmentBytes() }

// NumPages returns the number of 4 KB pages in the segment.
func (s *System) NumPages() int { return s.eng.NumPages() }

// NumUnits returns the number of consistency units in the segment.
func (s *System) NumUnits() int { return s.eng.NumUnits() }
