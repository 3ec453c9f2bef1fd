package apps_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

// TestResetMatchesFreshBuild pins tmk.System.Reset to the build
// NewSystem makes: on every protocol × placement × barrier × scale, at
// 4K and 8K units and with dynamic aggregation, a run after Reset has
// the digest of a run on a freshly built System, and both pass the
// workload's check. TSP and Water learn intervals through lock chains;
// Water's reach the sparse engine's fetch-cursor spill lists (TSP's
// small dataset never spills).
func TestResetMatchesFreshBuild(t *testing.T) {
	const procs = 8
	units := []struct {
		name    string // "" for the 4K page, so those subtests keep their names
		pages   int
		dynamic bool
	}{{"", 1, false}, {"/8K", 2, false}, {"/Dyn", 1, true}}
	for _, app := range []string{"Jacobi", "3D-FFT", "TSP", "Water"} {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", app)
		}
		for _, proto := range tmk.ProtocolNames() {
			for _, placement := range []string{"rr", "migrate"} {
				for _, barrier := range []string{"central", "tree"} {
					for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
						for _, unit := range units {
							cfg := tmk.Config{Procs: procs, Protocol: proto, Placement: placement, Barrier: barrier, Scale: scale,
								UnitPages: unit.pages, Dynamic: unit.dynamic}
							name := fmt.Sprintf("%s/%s/%s/%s/%s%s", app, proto, placement, barrier, scale, unit.name)
							t.Run(name, func(t *testing.T) {
								fresh := runDigest(t, e, cfg, false)
								if reset := runDigest(t, e, cfg, true); reset != fresh {
									t.Fatalf("run after Reset has digest %s, a fresh build %s", reset, fresh)
								}
							})
						}
					}
				}
			}
		}
	}
}

// runDigest builds e's workload on a new System and returns the digest
// of one checked run, made after a first run and a Reset when reset is
// set.
func runDigest(t *testing.T, e apps.Entry, cfg tmk.Config, reset bool) string {
	t.Helper()
	w := e.Make(cfg.Procs)
	sys, err := apps.NewSystem(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	if reset {
		sys.Run(w.Body)
		sys.Reset()
	}
	res := sys.Run(w.Body)
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}
