package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/tmk"
)

// TestMissingListsMatchEagerLists runs every registered application's
// small dataset under every protocol, static and dynamic units and both
// clock representations with the eager per-unit missing-write lists
// kept beside the fault-time rebuild, and requires every list a fetch
// rebuilds from the store log to equal the eager one.
func TestMissingListsMatchEagerLists(t *testing.T) {
	for _, app := range apps.Apps() {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			t.Fatalf("%s/small is not registered", app)
		}
		for _, protocol := range []string{"homeless", "home", "adaptive"} {
			for _, dynamic := range []bool{false, true} {
				for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
					t.Run(fmt.Sprintf("%s/%s/dyn=%v/%s", app, protocol, dynamic, scale), func(t *testing.T) {
						w := e.Make(8)
						sys, err := apps.NewSystem(w, tmk.Config{Procs: 8, Protocol: protocol, Dynamic: dynamic, Scale: scale})
						if err != nil {
							t.Fatal(err)
						}
						defer sys.Release()
						chk := sys.CheckMissingLists()
						sys.Run(w.Body)
						if err := w.Check(); err != nil {
							t.Fatal(err)
						}
						fetches, err := chk.Counts()
						if err != nil {
							t.Fatal(err)
						}
						if fetches == 0 {
							t.Fatal("no fetch rebuilt a missing-write list")
						}
					})
				}
			}
		}
	}
}
