package dsm

import (
	"strings"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/tmk"
)

// Protocol parity on the paper's applications: jacobi and tsp on the
// small datasets must verify against the sequential reference under
// every registered protocol — the application result does not depend
// on the coherence engine.
func TestProtocolParityOnApps(t *testing.T) {
	for _, name := range []string{"Jacobi", "TSP"} {
		for _, protocol := range tmk.ProtocolNames() {
			name, protocol := name, protocol
			t.Run(name+"/"+protocol, func(t *testing.T) {
				t.Parallel()
				e, ok := apps.Lookup(name, "small")
				if !ok {
					t.Fatalf("%s/small not registered", name)
				}
				res, err := apps.Run(e.Make(8),
					tmk.Config{Procs: 8, Protocol: protocol, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Messages <= 0 || res.Time <= 0 {
					t.Fatalf("implausible result: %+v", res)
				}
			})
		}
	}
}

// Bit-identical memory images across protocols and placements: a
// program mixing barrier phases (producer/consumer with false sharing)
// and lock-based accumulation must leave every shared word identical
// under homeless and home-based LRC, wherever the homes are placed and
// however they move mid-run.
func TestProtocolParityBitIdentical(t *testing.T) {
	const (
		procs = 8
		pages = 16
	)
	image := func(protocol string, extra ...Option) ([]int64, *Result) {
		sys, err := New(append([]Option{
			WithProcs(procs),
			WithSegmentBytes(pages * PageSize),
			WithLocks(2),
			WithProtocol(protocol),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sys.AllocPages(pages - 1)
		if err != nil {
			t.Fatal(err)
		}
		n := (pages - 1) * PageSize / WordSize
		out := make([]int64, 0, n)
		res := sys.Run(func(p *Proc) {
			// Phase 1: cyclic writes — every processor writes words of
			// every page (write-write false sharing).
			for w := p.ID(); w < n; w += procs {
				p.WriteI64(base+w*WordSize, int64(3*w+1))
			}
			p.Barrier()
			// Phase 2: neighbours read-modify-write a shifted slice.
			for w := (p.ID() + 1) % procs; w < n; w += procs {
				v := p.ReadI64(base + w*WordSize)
				p.WriteI64(base+w*WordSize, v*7)
			}
			p.Barrier()
			// Phase 3: lock-ordered accumulation, one accumulator word
			// per lock so every read-modify-write is guarded by the
			// lock that owns its word (addition commutes, so the final
			// values are independent of lock hand-off order).
			for i := 0; i < 3; i++ {
				l := i % 2
				p.Lock(l)
				a := base + l*WordSize
				p.WriteI64(a, p.ReadI64(a)+int64(p.ID()+1))
				p.Unlock(l)
			}
			p.Barrier()
			if p.ID() == 0 {
				for w := 0; w < n; w++ {
					out = append(out, p.ReadI64(base+w*WordSize))
				}
			}
		})
		return out, res
	}

	baseline, _ := image("homeless")
	if len(baseline) == 0 {
		t.Fatal("empty baseline image")
	}
	check := func(label string, got []int64) {
		t.Helper()
		if len(got) != len(baseline) {
			t.Fatalf("%s: image length %d != %d", label, len(got), len(baseline))
		}
		for w := range got {
			if got[w] != baseline[w] {
				t.Fatalf("%s: word %d = %d, homeless has %d",
					label, w, got[w], baseline[w])
			}
		}
	}
	for _, protocol := range Protocols() {
		if protocol == "homeless" {
			continue
		}
		for _, placement := range Placements() {
			got, _ := image(protocol, WithPlacement(placement))
			check(protocol+"/"+placement, got)
		}
		// On bus the contention gate opens and the adaptive engine
		// switches, exercising handoffs (static placements) and home
		// migration (mobile).
		if protocol == "adaptive" {
			for _, placement := range Placements() {
				got, res := image(protocol, WithPlacement(placement), WithNetwork("bus"))
				check(protocol+"/bus/"+placement, got)
				if res.ProtocolSwitches == 0 {
					t.Errorf("%s/bus/%s: no unit switched, so no handoff was exercised", protocol, placement)
				}
			}
		}
	}
}

// Adaptive parity on the full evaluation: every registered application's
// small dataset must verify against its sequential reference under the
// adaptive protocol at the paper's processor count — per-unit switching
// and ownership handoffs never change what the program computes.
func TestAdaptiveParityAllApps(t *testing.T) {
	for _, app := range apps.Apps() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			e, ok := apps.Lookup(app, "small")
			if !ok {
				t.Fatalf("%s: no small dataset", app)
			}
			res, err := apps.Run(e.Make(8),
				tmk.Config{Procs: 8, Protocol: "adaptive", Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages <= 0 || res.Time <= 0 || res.Stats == nil {
				t.Fatalf("implausible result: %+v", res)
			}
			total := 0
			for _, n := range res.UnitSwitches {
				total += n
			}
			if total != res.ProtocolSwitches || len(res.UnitSwitches) != res.SwitchedUnits {
				t.Fatalf("switch accounting inconsistent: %+v", res)
			}
		})
	}
}

// The adaptive protocol actually engages on the paper's false-sharing
// workload: on a contended interconnect (the §8 contention gate holds
// units homeless on the quiet ideal network), Barnes' falsely shared
// force pages must migrate to the home engine, and the run must still
// verify against the sequential reference (Check runs inside apps.Run).
func TestAdaptiveSwitchesOnBarnes(t *testing.T) {
	e, ok := apps.Lookup("Barnes", "512")
	if !ok {
		t.Fatal("Barnes/512 not registered")
	}
	res, err := apps.Run(e.Make(8), tmk.Config{
		Procs: 8, Protocol: "adaptive", Network: "bus", Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchedUnits == 0 || res.HomeUnits == 0 {
		t.Fatalf("Barnes/512 did not migrate its false-shared units: %+v", res)
	}
}

// The §8 contention gate is network-aware: the same Barnes run that
// migrates units on the contended bus holds every unit homeless on the
// contention-free ideal network (where homeless's extra messages cost
// nothing extra), and behaves identically to plain homeless there.
func TestAdaptiveContentionGateIdealVsBus(t *testing.T) {
	e, ok := apps.Lookup("Barnes", "512")
	if !ok {
		t.Fatal("Barnes/512 not registered")
	}
	onIdeal, err := apps.Run(e.Make(8), tmk.Config{Procs: 8, Protocol: "adaptive", Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if onIdeal.ProtocolSwitches != 0 || onIdeal.HomeUnits != 0 {
		t.Fatalf("gate open on ideal: %d switches, %d home units",
			onIdeal.ProtocolSwitches, onIdeal.HomeUnits)
	}
	homeless, err := apps.Run(e.Make(8), tmk.Config{Procs: 8, Protocol: "homeless", Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if onIdeal.Messages != homeless.Messages || onIdeal.Bytes != homeless.Bytes {
		t.Fatalf("held-homeless adaptive (%d msgs, %d bytes) != homeless (%d, %d)",
			onIdeal.Messages, onIdeal.Bytes, homeless.Messages, homeless.Bytes)
	}
	onBus, err := apps.Run(e.Make(8), tmk.Config{
		Procs: 8, Protocol: "adaptive", Network: "bus", Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if onBus.ProtocolSwitches == 0 {
		t.Fatal("gate closed on the contended bus: no switches")
	}
}

// Placement parity on real applications: jacobi and water on the small
// datasets must verify against the sequential reference under the
// home-based engine for every registered placement — where the homes
// live (and whether they move) never changes what the program computes.
func TestPlacementParityOnApps(t *testing.T) {
	for _, name := range []string{"Jacobi", "Water"} {
		for _, placement := range tmk.PlacementNames() {
			name, placement := name, placement
			t.Run(name+"/"+placement, func(t *testing.T) {
				t.Parallel()
				e, ok := apps.Lookup(name, "small")
				if !ok {
					t.Fatalf("%s/small not registered", name)
				}
				res, err := apps.Run(e.Make(8),
					tmk.Config{Procs: 8, Protocol: "home", Placement: placement, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Messages <= 0 || res.Time <= 0 {
					t.Fatalf("implausible result: %+v", res)
				}
				if res.Placement != placement {
					t.Fatalf("Result.Placement = %q, want %q", res.Placement, placement)
				}
				if res.RehomeBytes > 0 && res.Rehomes == 0 {
					t.Fatalf("rehome accounting inconsistent: %+v", res)
				}
			})
		}
	}
}

// WithPlacement validates its argument and surfaces unknown placements
// as errors from New, never panics; Placements lists the registry.
func TestWithPlacementValidation(t *testing.T) {
	for _, good := range []string{"rr", "Block", "FIRSTTOUCH", "migrate"} {
		if _, err := New(WithPlacement(good)); err != nil {
			t.Fatalf("WithPlacement(%s): %v", good, err)
		}
	}
	_, err := New(WithPlacement("bogus"))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want descriptive error, got %v", err)
	}
	if !strings.Contains(err.Error(), "firsttouch") {
		t.Fatalf("error should list known placements, got %v", err)
	}
	want := []string{"block", "firsttouch", "migrate", "rr"}
	got := Placements()
	if len(got) != len(want) {
		t.Fatalf("Placements() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Placements() = %v, want %v", got, want)
		}
	}
	sys, err := New(WithProtocol("home"), WithPlacement("firsttouch"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Config().Placement; got != "firsttouch" {
		t.Fatalf("Config().Placement = %q, want firsttouch", got)
	}
}

// WithProtocol validates its argument and surfaces unknown protocols
// as errors from New, never panics.
func TestWithProtocolValidation(t *testing.T) {
	if _, err := New(WithProtocol("home")); err != nil {
		t.Fatalf("WithProtocol(home): %v", err)
	}
	if _, err := New(WithProtocol("HOMELESS")); err != nil {
		t.Fatalf("protocol names are case-insensitive: %v", err)
	}
	if _, err := New(WithProtocol("adaptive")); err != nil {
		t.Fatalf("WithProtocol(adaptive): %v", err)
	}
	_, err := New(WithProtocol("bogus"))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want descriptive error, got %v", err)
	}
	if !strings.Contains(err.Error(), "home") {
		t.Fatalf("error should list known protocols, got %v", err)
	}
}

// RunTrials runs concurrently on per-trial engines but must stay
// deterministic and in order: every trial of a barrier program reports
// the same simulated time as a plain Run, and the System itself is
// untouched.
func TestRunTrialsParallelDeterminism(t *testing.T) {
	build := func() (*System, Addr) {
		sys, err := New(WithProcs(4), WithSegmentBytes(8*PageSize))
		if err != nil {
			t.Fatal(err)
		}
		base, err := sys.AllocPages(4)
		if err != nil {
			t.Fatal(err)
		}
		return sys, base
	}
	body := func(base Addr) func(p *Proc) {
		return func(p *Proc) {
			n := 4 * PageSize / WordSize
			for w := p.ID(); w < n; w += p.NProcs() {
				p.WriteF64(base+w*WordSize, float64(w))
			}
			p.Barrier()
			for w := p.NProcs() - 1 - p.ID(); w < n; w += p.NProcs() {
				_ = p.ReadF64(base + w*WordSize)
			}
		}
	}

	sys, base := build()
	single := sys.Run(body(base))

	ts, err := sys.RunTrials(6, body(base))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Trials) != 6 {
		t.Fatalf("trials = %d, want 6", len(ts.Trials))
	}
	for i, r := range ts.Trials {
		if r.Time != single.Time {
			t.Fatalf("trial %d time %v != single-run time %v", i, r.Time, single.Time)
		}
		if r.Messages != single.Messages || r.Bytes != single.Bytes {
			t.Fatalf("trial %d counts (%d msgs, %d bytes) != single run (%d, %d)",
				i, r.Messages, r.Bytes, single.Messages, single.Bytes)
		}
	}
	if ts.MinTime != ts.MaxTime || ts.MeanTime != single.Time {
		t.Fatalf("aggregate not deterministic: min %v mean %v max %v",
			ts.MinTime, ts.MeanTime, ts.MaxTime)
	}

	if _, err := sys.RunTrials(0, body(base)); err == nil {
		t.Fatal("RunTrials(0) should error")
	}
}
