package expsvc

import "testing"

// FuzzResolve checks that resolution is a canonicalization: it never
// panics, a resolved spec's wire form resolves to itself (same hash, same
// canonical spec), and the engine configuration it runs under is already
// in the engine's canonical form, so the service and the engine agree on
// every name and default.
func FuzzResolve(f *testing.F) {
	// The serve-mix universe's shapes (app × small/medium × protocol ×
	// unit × procs × placement × barrier × scale), plus spellings the
	// canonicalizer must fold and values it must reject.
	f.Add("jacobi", "small", 1, false, "homeless", "", "rr", "central", "sparse", 0, 2, 0, false)
	f.Add("Water", "medium", 2, false, "home", "bus", "firsttouch", "tree", "dense", 0, 7, 1, false)
	f.Add("barnes", "small", 1, true, "adaptive", "switch", "migrate", "tree", "sparse", 8, 8, 3, true)
	f.Add("ilink", "medium", 8, false, "adaptive", "10gbe", "block", "central", "dense", 5, 4, 2, false)
	f.Add("TSP", "", 4, false, " Home ", "IDEAL", "RR", "Central", "SPARSE", 0, 0, 0, false)
	f.Add("mgs", "1024", 0, false, "", "", "", "", "", 0, 0, 0, false)
	f.Add("3d-fft", "large", -1, false, "zzz", "token-ring", "nearest", "butterfly", "medium", 1, -1, -1, false)
	f.Add("shallow", "small", 1, false, "adaptive", "bus", "rr", "tree", "sparse", 1, 1025, 65, false)
	f.Fuzz(func(t *testing.T, app, dataset string, unit int, dynamic bool, protocol, network, placement,
		barrier, scale string, radix, procs, trials int, collect bool) {
		r, err := Resolve(Spec{
			App: app, Dataset: dataset, UnitPages: unit, Dynamic: dynamic,
			Protocol: protocol, Network: network, Placement: placement,
			Scale: scale, Barrier: barrier, BarrierRadix: radix,
			Procs: procs, Trials: trials, Collect: collect,
		})
		if err != nil {
			return
		}
		again, err := Resolve(r.Canonical())
		if err != nil {
			t.Fatalf("canonical spec %+v does not resolve: %v", r.Canonical(), err)
		}
		if again.Hash() != r.Hash() || again.Canonical() != r.Canonical() {
			t.Fatalf("resolution is not idempotent:\n  %+v\n  %+v", r.Canonical(), again.Canonical())
		}
		cfg := r.EngineConfig()
		if resolved, err := cfg.Resolve(); err != nil || resolved != cfg {
			t.Fatalf("engine config %+v is not canonical: %+v, %v", cfg, resolved, err)
		}
	})
}
