package tmk

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/simnet"
)

// All built-in placements are registered and listed sorted, lookups are
// case-insensitive, and an unknown placement is an error from
// NewSystem that names the registered policies.
func TestPlacementRegistry(t *testing.T) {
	names := PlacementNames()
	want := []string{"block", "firsttouch", "migrate", "rr"}
	if len(names) != len(want) {
		t.Fatalf("PlacementNames() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PlacementNames() = %v, want %v", names, want)
		}
	}
	_, err := NewSystem(Config{Placement: "bogus"})
	if err == nil {
		t.Fatal("NewSystem accepted unknown placement")
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "firsttouch") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if got, err := (Config{}).Resolve(); err != nil || got.Placement != DefaultPlacement {
		t.Fatalf("Resolve().Placement = %q (%v), want %q", got.Placement, err, DefaultPlacement)
	}
}

// The default and case-insensitive selection resolve correctly, Reset
// keeps the selected placement, and the initial home tables match the
// policies' assignments (rr: round-robin; block: contiguous bands).
func TestPlacementSelectionAndInitialHomes(t *testing.T) {
	def, err := NewSystem(Config{SegmentBytes: 8 * 4096, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if def.Config().Placement != "rr" {
		t.Fatalf("default placement = %q, want rr", def.Config().Placement)
	}
	for u := 0; u < def.NumUnits(); u++ {
		if def.homeOf(u) != u%4 {
			t.Fatalf("rr home of unit %d = %d, want %d", u, def.homeOf(u), u%4)
		}
	}

	blk, err := NewSystem(Config{SegmentBytes: 8 * 4096, Procs: 4, Placement: "Block", Protocol: "home"})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Config().Placement != "block" {
		t.Fatalf("placement = %q, want block", blk.Config().Placement)
	}
	// 8 units over 4 processors: units 2u and 2u+1 on processor u.
	for u := 0; u < blk.NumUnits(); u++ {
		if blk.homeOf(u) != u/2 {
			t.Fatalf("block home of unit %d = %d, want %d", u, blk.homeOf(u), u/2)
		}
	}
	blk.Reset()
	if blk.Config().Placement != "block" || blk.homeOf(2) != 1 {
		t.Fatalf("placement after Reset = %q, home(2) = %d", blk.Config().Placement, blk.homeOf(2))
	}
}

// bandedRun runs a home-protocol program where processor p exclusively
// writes unit p and everyone reads all units each phase — the NUMA-ish
// pattern first-touch and migration exist for.
func bandedRun(t *testing.T, placement string, phases int) (*System, *Result) {
	t.Helper()
	const procs = 4
	sys, err := NewSystem(Config{
		Procs:        procs,
		SegmentBytes: procs * 4096,
		Protocol:     "home",
		Placement:    placement,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Alloc(procs * 4096)
	res := sys.Run(func(p *Proc) {
		for ph := 0; ph < phases; ph++ {
			p.WriteI64(base+p.ID()*4096, int64(100*ph+p.ID()))
			p.Barrier()
			var sum int64
			for u := 0; u < procs; u++ {
				sum += p.ReadI64(base + u*4096)
			}
			p.Barrier()
			_ = sum
		}
	})
	return sys, res
}

// First-touch binds every unit to its sole writer at the first barrier
// after the first write: each unit's flushes become local (no HomeFlush
// traffic at all in the banded program), the bindings are counted as
// unpriced rehomes, and repeated trials on one System reproduce the
// first bit-for-bit — the resolution is deterministic across Reset.
func TestFirstTouchBindsAndIsDeterministic(t *testing.T) {
	sys, r1 := bandedRun(t, "firsttouch", 4)
	for u := 0; u < sys.NumUnits(); u++ {
		if sys.homeOf(u) != u {
			t.Fatalf("unit %d homed at %d, want its writer %d", u, sys.homeOf(u), u)
		}
	}
	// Units 1, 2, 3 moved off their round-robin homes... but in this
	// layout rr already homes unit u at processor u, so re-binding is a
	// no-move. Use the counts of a shifted check below; here assert no
	// remote flushes remain once bound (phase 0 flushed to provisional
	// rr homes, which coincide).
	if got := sys.net.CountsByKind()[simnet.HomeFlush].Messages; got != 0 {
		t.Fatalf("banded first-touch run still flushed %d times over the wire", got)
	}
	if r1.Rehomes != 0 {
		t.Fatalf("coinciding first-touch binding counted %d rehomes", r1.Rehomes)
	}
	if r1.RehomeBytes != 0 {
		t.Fatalf("first-touch binding priced %d bytes", r1.RehomeBytes)
	}

	// Trial 2 on the same System must reproduce trial 1 exactly.
	r2 := sys.Run(func(p *Proc) {})
	_ = r2
	sys2, r3 := bandedRun(t, "firsttouch", 4)
	r4 := sys2.Run(func(p *Proc) {
		for ph := 0; ph < 4; ph++ {
			p.WriteI64(p.ID()*4096, int64(100*ph+p.ID()))
			p.Barrier()
			var sum int64
			for u := 0; u < 4; u++ {
				sum += p.ReadI64(u * 4096)
			}
			p.Barrier()
			_ = sum
		}
	})
	if r3.Time != r4.Time || r3.Messages != r4.Messages || r3.Bytes != r4.Bytes {
		t.Fatalf("first-touch run not reproducible across Reset:\n  r3 = %+v\n  r4 = %+v", r3, r4)
	}
}

// A shifted banded program (processor p writes unit (p+1)%n, reads one
// other unit) forces first-touch to move every unit off its
// round-robin home: the bindings are counted, unpriced, and kill the
// steady-state remote flush traffic rr pays forever.
func TestFirstTouchMovesShiftedBands(t *testing.T) {
	const procs = 4
	run := func(placement string) (*System, *Result) {
		sys, err := NewSystem(Config{
			Procs:        procs,
			SegmentBytes: procs * 4096,
			Protocol:     "home",
			Placement:    placement,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := sys.Alloc(procs * 4096)
		res := sys.Run(func(p *Proc) {
			u := (p.ID() + 1) % procs
			r := (p.ID() + 2) % procs
			for ph := 0; ph < 4; ph++ {
				p.WriteI64(base+u*4096, int64(100*ph+p.ID()))
				p.Barrier()
				_ = p.ReadI64(base + r*4096)
				p.Barrier()
			}
		})
		return sys, res
	}
	ft, ftRes := run("firsttouch")
	for u := 0; u < procs; u++ {
		want := (u + procs - 1) % procs // the writer of unit u
		if ft.homeOf(u) != want {
			t.Fatalf("unit %d homed at %d, want first writer %d", u, ft.homeOf(u), want)
		}
	}
	if ftRes.Rehomes != procs {
		t.Fatalf("Rehomes = %d, want %d bindings", ftRes.Rehomes, procs)
	}
	if ftRes.RehomeBytes != 0 {
		t.Fatalf("first-touch bindings priced %d bytes on the wire", ftRes.RehomeBytes)
	}
	rr, rrRes := run("rr")
	if rrRes.Rehomes != 0 {
		t.Fatalf("rr rehomed %d times", rrRes.Rehomes)
	}
	// After the binding barrier every flush is local; rr keeps flushing
	// remotely each phase.
	ftFlush := ft.net.CountsByKind()[simnet.HomeFlush].Messages
	rrFlush := rr.net.CountsByKind()[simnet.HomeFlush].Messages
	if ftFlush >= rrFlush {
		t.Fatalf("first-touch flushes (%d) not below rr's (%d)", ftFlush, rrFlush)
	}
	if rrRes.Messages <= ftRes.Messages {
		t.Fatalf("first-touch (%d msgs) did not beat rr (%d msgs) on shifted bands",
			ftRes.Messages, rrRes.Messages)
	}
	if rrRes.Time <= ftRes.Time {
		t.Fatalf("first-touch (%v) did not beat rr (%v) on shifted bands", ftRes.Time, rrRes.Time)
	}
}

// Migration chases a moved writer: after the write pattern rotates,
// the dominant-writer rule rehomes each unit to its new writer, the
// moves are priced as HomeMigrate exchanges carrying the page state,
// and the accounting ties out (Rehomes = priced moves; RehomeBytes =
// the exchanges' reply payloads).
func TestMigrateChasesWritersAndPricesMoves(t *testing.T) {
	const procs = 4
	sys, err := NewSystem(Config{
		Procs:        procs,
		SegmentBytes: procs * 4096,
		Protocol:     "home",
		Placement:    "migrate",
	})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Alloc(procs * 4096)
	res := sys.Run(func(p *Proc) {
		// Phases 0-3: processor p writes unit (p+1)%procs — homes must
		// migrate off the round-robin assignment to the writers.
		u := (p.ID() + 1) % procs
		for ph := 0; ph < 4; ph++ {
			p.WriteI64(base+u*4096, int64(100*ph+p.ID()))
			p.Barrier()
			var sum int64
			for w := 0; w < procs; w++ {
				sum += p.ReadI64(base + w*4096)
			}
			p.Barrier()
			_ = sum
		}
	})
	for u := 0; u < procs; u++ {
		want := (u + procs - 1) % procs
		if sys.homeOf(u) != want {
			t.Fatalf("unit %d homed at %d, want dominant writer %d", u, sys.homeOf(u), want)
		}
	}
	if res.Rehomes != procs {
		t.Fatalf("Rehomes = %d, want %d (one move per unit, then stable)", res.Rehomes, procs)
	}
	if res.RehomeBytes == 0 {
		t.Fatal("migration moved homes for free")
	}
	hm := sys.net.CountsByKind()[simnet.HomeMigrate]
	if hm.Messages != 2*procs {
		t.Fatalf("HomeMigrate messages = %d, want %d (one exchange per move)", hm.Messages, 2*procs)
	}
	if want := res.RehomeBytes + 16*procs; hm.Bytes != want {
		t.Fatalf("HomeMigrate bytes = %d, want reply payloads + request headers = %d", hm.Bytes, want)
	}

	// Stability: a second identical run on the reset System reproduces
	// the first exactly — no oscillation, same moves, same pricing.
	res2 := sys.Run(func(p *Proc) {
		u := (p.ID() + 1) % procs
		for ph := 0; ph < 4; ph++ {
			p.WriteI64(base+u*4096, int64(100*ph+p.ID()))
			p.Barrier()
			var sum int64
			for w := 0; w < procs; w++ {
				sum += p.ReadI64(base + w*4096)
			}
			p.Barrier()
			_ = sum
		}
	})
	if res2.Time != res.Time || res2.Messages != res.Messages || res2.Rehomes != res.Rehomes ||
		res2.RehomeBytes != res.RehomeBytes {
		t.Fatalf("migrate run not reproducible after Reset:\n  r1 = %+v\n  r2 = %+v", res, res2)
	}
}

// A stable single-writer pattern whose writer already matches the home
// never rehomes: migration only moves when the dominant writer is
// elsewhere.
func TestMigrateStableWhenWriterIsHome(t *testing.T) {
	sys, res := bandedRun(t, "migrate", 4)
	for u := 0; u < sys.NumUnits(); u++ {
		if sys.homeOf(u) != u {
			t.Fatalf("unit %d moved to %d", u, sys.homeOf(u))
		}
	}
	if res.Rehomes != 0 || res.RehomeBytes != 0 {
		t.Fatalf("stable pattern rehomed: %+v", res)
	}
}

// First-touch must bind to the unit's true first writer even when the
// adaptive policy switches the unit homeless→home at the very same
// barrier the binding evidence arrives (hysteresis 1): bindings are
// never deferred past their evidence, or the unit would bind to a
// *later* phase's first writer.
func TestFirstTouchBindsAtSwitchBarrier(t *testing.T) {
	sys := mustTuned(t, Config{Procs: 4, SegmentBytes: 2 * 4096, Protocol: "adaptive", Placement: "firsttouch"},
		tuning{hysteresis: 1, gate: gateOpen})
	base := sys.Alloc(2 * 4096)
	res := sys.Run(func(p *Proc) {
		// Phase 0: only processors 2 and 3 write unit 1 — enough
		// concurrent writers to switch it at hysteresis 1, and the
		// causally first writer is processor 2.
		if p.ID() >= 2 {
			p.WriteI64(base+4096+p.ID()*8, int64(p.ID()))
		}
		p.Barrier()
		// Later phases: everyone writes, so a deferred binding would
		// resolve to processor 0 instead.
		for ph := 0; ph < 3; ph++ {
			p.WriteI64(base+4096+p.ID()*8, int64(10*ph+p.ID()))
			p.Barrier()
			_ = p.ReadI64(base + 4096)
			p.Barrier()
		}
	})
	if res.ProtocolSwitches == 0 {
		t.Fatalf("precondition: unit 1 must switch at hysteresis 1: %+v", res)
	}
	if got := sys.homeOf(1); got != 2 {
		t.Fatalf("unit 1 bound to %d, want its first writer 2", got)
	}
}

// Under a mobile placement the adaptive protocol's homeless→home
// switch migrates the home to the unit's last writer instead of
// pulling the unit image over the wire: same switches, zero
// HomeHandoff traffic, and the unit ends up homed at a writer.
func TestAdaptiveMobilePlacementCheapHandoff(t *testing.T) {
	run := func(placement string) (*System, *Result) {
		sys := mustTuned(t, Config{Procs: 4, SegmentBytes: 2 * 4096, Protocol: "adaptive", Placement: placement},
			tuning{gate: gateOpen})
		base := sys.Alloc(2 * 4096)
		res := sys.Run(func(p *Proc) {
			for ph := 0; ph < 6; ph++ {
				p.WriteI64(base+p.ID()*8, int64(100*ph+p.ID()))
				p.Barrier()
				var sum int64
				for w := 0; w < 4; w++ {
					sum += p.ReadI64(base + w*8)
				}
				p.Barrier()
				_ = sum
			}
		})
		return sys, res
	}

	rrSys, rrRes := run("rr")
	if rrRes.SwitchedUnits == 0 || rrRes.HandoffBytes == 0 {
		t.Fatalf("precondition: rr run must switch and pay an image pull: %+v", rrRes)
	}
	if n := rrSys.net.CountsByKind()[simnet.HomeHandoff].Messages; n == 0 {
		t.Fatal("precondition: rr run must put HomeHandoff on the wire")
	}

	mgSys, mgRes := run("migrate")
	if mgRes.SwitchedUnits == 0 {
		t.Fatalf("migrate run did not switch: %+v", mgRes)
	}
	if mgRes.HandoffBytes != 0 {
		t.Fatalf("mobile placement still paid an image pull: %d handoff bytes", mgRes.HandoffBytes)
	}
	if n := mgSys.net.CountsByKind()[simnet.HomeHandoff].Messages; n != 0 {
		t.Fatalf("mobile placement sent %d HomeHandoff messages", n)
	}
	if mgRes.Rehomes == 0 {
		t.Fatal("home migration at the switch was not counted as a rehome")
	}
	if mgRes.HomeUnits == 0 {
		t.Fatalf("no unit ended home-owned: %+v", mgRes)
	}
	// The handoff cost itself is what drops; in this toy program the
	// rest of the traffic is identical up to where the home landed, so
	// the migrate run must not exceed the rr run's wire totals plus the
	// image pull it avoided.
	if mgRes.Bytes > rrRes.Bytes {
		t.Fatalf("mobile placement increased wire bytes: %d > %d", mgRes.Bytes, rrRes.Bytes)
	}
}

// A home move is priced by the unit's size: every page travels as one
// full-page image of mem.FullPageWireBytes (4,108 bytes), whatever it
// holds. A migration's reply carries UnitPages of them, and so does an
// adaptive handoff's, each exchange's request adding its 16-byte header.
func TestMovesPricedByUnitSize(t *testing.T) {
	const procs = 4
	for _, up := range []int{1, 2, 4} {
		unit := up * mem.PageSize
		rotate := func(p *Proc, base int) {
			u := (p.ID() + 1) % procs
			for ph := 0; ph < 4; ph++ {
				p.WriteI64(base+u*unit+8*ph, int64(100*ph+p.ID()))
				p.Barrier()
				var sum int64
				for w := 0; w < procs; w++ {
					sum += p.ReadI64(base + w*unit)
				}
				p.Barrier()
				_ = sum
			}
		}
		mg, err := NewSystem(Config{Procs: procs, SegmentBytes: procs * unit, UnitPages: up, Protocol: "home", Placement: "migrate"})
		if err != nil {
			t.Fatal(err)
		}
		base := mg.Alloc(procs * unit)
		res := mg.Run(func(p *Proc) { rotate(p, base) })
		moves := mg.net.CountsByKind()[simnet.HomeMigrate].Messages / 2
		if moves == 0 || res.RehomeBytes != moves*up*4108 {
			t.Errorf("unit %d: RehomeBytes = %d over %d migrations, want %d each", up, res.RehomeBytes, moves, up*4108)
		}

		ad := mustTuned(t, Config{Procs: procs, SegmentBytes: 2 * unit, UnitPages: up, Protocol: "adaptive", Placement: "rr"},
			tuning{gate: gateOpen})
		base = ad.Alloc(2 * unit)
		res = ad.Run(func(p *Proc) {
			for ph := 0; ph < 6; ph++ {
				p.WriteI64(base+p.ID()*8, int64(100*ph+p.ID()))
				p.Barrier()
				_ = p.ReadI64(base)
				p.Barrier()
			}
		})
		pulls := ad.net.CountsByKind()[simnet.HomeHandoff].Messages / 2
		if pulls == 0 || res.HandoffBytes != pulls*(16+up*4108) {
			t.Errorf("unit %d: HandoffBytes = %d over %d handoffs, want %d each", up, res.HandoffBytes, pulls, 16+up*4108)
		}
	}
}
