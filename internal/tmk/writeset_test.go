package tmk_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/tmk"
)

// TestWriteSetsMatchTwins runs the twin-then-compare write detection the
// write sets replaced beside them (System.CheckWriteSets) and requires
// the same diff, run for run, on every page of every interval: each
// application's small dataset under every protocol, static units of 1,
// 2 and 4 pages and dynamic aggregation, on both engines, at 8
// processors, and Storm/large — one word per page per episode — at 64.
// Between them the cells must diff pages and fill some write sets
// (dense writers move to the write fast path).
func TestWriteSetsMatchTwins(t *testing.T) {
	type cell struct {
		app, dataset string
		cfg          tmk.Config
	}
	var cells []cell
	for _, app := range apps.Apps() {
		for _, proto := range tmk.ProtocolNames() {
			for _, scale := range []string{tmk.ScaleSparse, tmk.ScaleDense} {
				for _, u := range []tmk.Config{{UnitPages: 1}, {UnitPages: 2}, {UnitPages: 4}, {UnitPages: 1, Dynamic: true}} {
					u.Procs, u.Protocol, u.Scale = 8, proto, scale
					cells = append(cells, cell{app, "small", u})
				}
			}
		}
	}
	cells = append(cells, cell{"Storm", "large", tmk.Config{Procs: 64, Barrier: "tree"}})

	promoted := 0
	for _, c := range cells {
		unit := fmt.Sprintf("u%d", c.cfg.UnitPages)
		if c.cfg.Dynamic {
			unit = "dyn"
		}
		name := fmt.Sprintf("%s/%s/%s/%s/%s/p%d", c.app, c.dataset, c.cfg.Protocol, c.cfg.Scale, unit, c.cfg.Procs)
		e, ok := apps.Lookup(c.app, c.dataset)
		if !ok {
			t.Fatalf("%s/%s is not registered", c.app, c.dataset)
		}
		w := e.Make(c.cfg.Procs)
		sys, err := apps.NewSystem(w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := sys.CheckWriteSets()
		sys.Run(w.Body)
		if err := w.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		diffs, err := check.Diffs()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if diffs == 0 {
			t.Errorf("%s: no page was diffed", name)
		}
		promoted += sys.Promoted()
		sys.Release()
	}
	if promoted == 0 {
		t.Error("no write set was ever filled: the write fast path went untested")
	}
}
