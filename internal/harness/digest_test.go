package harness

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tmk"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

const digestTable = "testdata/digests.txt"

// digestPoints is every grid the harness defines, on the ideal network:
//   - Table 1's sequential cells;
//   - Figures 1–2, Table 1 and every application's small dataset, under
//     each of the paper's four configurations and every protocol;
//   - Table 1 under every placement for the home and adaptive protocols;
//   - Storm/small at 64 processors, homeless and home, under
//     dense/central, sparse/central and sparse/tree;
//   - the lock applications, TSP and Water, at 16 processors, homeless
//     and home, under the central and the tree barrier.
//
// Contended networks are left out: their timing still follows the
// host's goroutine order (DESIGN §14). A cell two grids share has one
// row per grid.
func digestPoints() []Point {
	var points []Point
	for _, e := range Table1() {
		points = append(points, Point{e, Config{Label: "seq", Unit: 1}, 1})
	}
	es := append(Figure1(), Figure2()...)
	for _, app := range apps.Apps() {
		es = append(es, exp(app, "small"))
	}
	seen := map[string]bool{}
	for _, e := range es {
		if seen[e.App+"|"+e.Dataset] {
			continue
		}
		seen[e.App+"|"+e.Dataset] = true
		for _, c := range Configs() {
			for _, protocol := range tmk.ProtocolNames() {
				c.Protocol = protocol
				points = append(points, Point{e, c, Procs})
			}
		}
	}
	for _, e := range Table1() {
		for _, placement := range tmk.PlacementNames() {
			for _, protocol := range placementProtocols {
				points = append(points, Point{e, Config{Label: "4K", Unit: 1, Protocol: protocol, Placement: placement}, Procs})
			}
		}
	}
	modes := []ScalingMode{
		ScalingModes()[0],
		{Name: "sparse/central", Scale: tmk.ScaleSparse, Barrier: "central"},
		ScalingModes()[1],
	}
	for _, protocol := range []string{"homeless", "home"} {
		for _, m := range modes {
			c := Config{Label: "4K", Unit: 1, Protocol: protocol, Scale: m.Scale, Barrier: m.Barrier, BarrierRadix: m.Radix}
			points = append(points, Point{exp("Storm", "small"), c, 64})
		}
	}
	for _, e := range []Experiment{exp("TSP", "12-city"), exp("Water", "96")} {
		for _, protocol := range []string{"homeless", "home"} {
			for _, barrier := range tmk.BarrierNames() {
				points = append(points, Point{e, Config{Label: "4K", Unit: 1, Protocol: protocol, Barrier: barrier}, 16})
			}
		}
	}
	return points
}

// digestKey names a point by its resolved configuration.
func digestKey(t *testing.T, p Point) string {
	cfg, err := p.engineConfig(true)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|%s|%s|%s/%d|p%d", p.Exp.App, p.Exp.Dataset, p.Config.Label,
		cfg.Protocol, cfg.Network, cfg.Placement, cfg.Scale, cfg.Barrier, cfg.BarrierRadix, p.Procs)
}

// TestDigestTable runs every point of digestPoints and compares each
// cell's time, messages, bytes and run digest with the committed table,
// naming every row that moved. Every row is exact, the lock applications'
// (TSP and Water) included: locks are granted in virtual-time order, so
// a cell on the ideal network does not depend on the host's scheduling.
//
// Regenerate the table after an intended change of behaviour with
//
//	go test ./internal/harness -run TestDigestTable -update
//
// The Jacobi/small homeless and home rows carry the counts the root
// golden tests (TestHomelessGoldenCounts, TestHomeRRGoldenCounts) pin:
// 294 messages, 500,952 bytes and 46,004,895 ns from `dsmrun -json` at
// commit 60f6268, before the Protocol interface was extracted; and 307
// messages, 848,112 bytes and 67,212,680 ns under round-robin homes at
// commit feb88a8, before homes moved behind the Placement policy.
func TestDigestTable(t *testing.T) {
	points := digestPoints()
	cells, err := RunGrid(points, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(points))
	digests := map[string]string{}
	for i, p := range points {
		key := digestKey(t, p)
		c := cells[i]
		digests[key] = c.Digest
		rows[i] = fmt.Sprintf("%s  %d %d %d %s", key, int64(c.Time), c.Msgs, c.Bytes, c.Digest)
	}
	slices.Sort(rows)

	// The dense and sparse clock representations are one behaviour.
	for _, protocol := range []string{"homeless", "home"} {
		pre := "Storm|small|4K|" + protocol + "|ideal|rr|"
		dense, sparse := digests[pre+"dense|central/4|p64"], digests[pre+"sparse|central/4|p64"]
		if dense == "" || dense != sparse {
			t.Errorf("Storm/small %s at 64 procs: dense digest %q, sparse %q", protocol, dense, sparse)
		}
	}

	got := "# app|dataset|label|protocol|network|placement|scale|barrier/radix|procs  time_ns msgs bytes digest\n" +
		"# Regenerate: go test ./internal/harness -run TestDigestTable -update\n" +
		strings.Join(rows, "\n") + "\n"
	if *update {
		if err := os.WriteFile(digestTable, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestTable)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == got {
		return
	}
	want := tableRows(string(raw))
	have := tableRows(got)
	for _, key := range slices.Sorted(maps.Keys(want)) {
		switch w, h := want[key], have[key]; {
		case h == "":
			t.Errorf("%s: row gone (was %s)", key, w)
		case h != w:
			t.Errorf("%s: %s, table has %s", key, h, w)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(have)) {
		if want[key] == "" {
			t.Errorf("%s: new row %s", key, have[key])
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from this run only in layout; regenerate it with -update", digestTable)
	}
}

// tableRows maps each row's key to its numbers.
func tableRows(table string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if key, nums, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") {
			out[key] = nums
		}
	}
	return out
}

// lockPhases is a lock program whose grants do not depend on the host:
// in every barrier phase each processor takes a lock nobody else ever
// requests, managed by its neighbour, writes its own page and releases.
type lockPhases struct {
	procs, rounds int
	base          mem.Addr
}

func (l *lockPhases) body(p *tmk.Proc) {
	k := p.ID()
	for r := 0; r < l.rounds; r++ {
		lock := r*l.procs + (k+1)%l.procs
		p.Lock(lock)
		p.WriteI64(l.base+mem.Addr(k*mem.PageSize), int64(r+1))
		p.Unlock(lock)
		p.Barrier()
	}
}

// TestDigestSeesEveryCost bumps each sim.CostModel field by 1 ns in
// turn: on a handful of rows whose behaviour is exact, each bump must
// change at least one digest, so no cost the engine charges can drift
// without the table noticing.
func TestDigestSeesEveryCost(t *testing.T) {
	jacobi, storm := exp("Jacobi", "small"), exp("Storm", "small")
	type row struct {
		name string
		run  func(cost *sim.CostModel) (*tmk.Result, error)
	}
	app := func(e Experiment, cfg tmk.Config) func(*sim.CostModel) (*tmk.Result, error) {
		return func(cost *sim.CostModel) (*tmk.Result, error) {
			cfg.Cost, cfg.Collect = cost, true
			return apps.Run(e.Make(cfg.Procs), cfg)
		}
	}
	var rows []row
	for _, protocol := range tmk.ProtocolNames() {
		rows = append(rows, row{"Jacobi/" + protocol, app(jacobi, tmk.Config{Procs: Procs, Protocol: protocol})})
	}
	rows = append(rows,
		row{"Storm/tree/p16", app(storm, tmk.Config{Procs: 16, Barrier: "tree"})},
		row{"Jacobi/home/migrate", app(jacobi, tmk.Config{Procs: Procs, Protocol: "home", Placement: "migrate"})},
		row{"lockPhases", func(cost *sim.CostModel) (*tmk.Result, error) {
			l := &lockPhases{procs: Procs, rounds: 3}
			sys, err := tmk.NewSystem(tmk.Config{
				Procs: l.procs, SegmentBytes: l.procs * mem.PageSize, Locks: l.rounds * l.procs, Cost: cost,
			})
			if err != nil {
				return nil, err
			}
			defer sys.Release()
			l.base = sys.AllocPages(l.procs)
			return sys.Run(l.body), nil
		}},
	)
	digests := func(cost sim.CostModel) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			res, err := r.run(&cost)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out[i] = res.Digest()
		}
		return out
	}
	base := digests(sim.DefaultCostModel())
	if again := digests(sim.DefaultCostModel()); !slices.Equal(again, base) {
		t.Fatalf("rows are not deterministic: %v, then %v", base, again)
	}
	fields := reflect.TypeFor[sim.CostModel]().NumField()
	for f := range fields {
		cost := sim.DefaultCostModel()
		v := reflect.ValueOf(&cost).Elem().Field(f)
		v.SetInt(v.Int() + int64(sim.Nanosecond))
		if slices.Equal(digests(cost), base) {
			t.Errorf("CostModel.%s + 1ns changed no digest", reflect.TypeFor[sim.CostModel]().Field(f).Name)
		}
	}
}

// TestReportCellsCarryDigest: every grid dsmbench -json reports yields
// cells that name their resolved protocol, network, placement and
// processor count; each engine-run cell carries a digest, on ideal the
// one a serial runCell of its point gives, and each derived cell is
// marked and carries none.
func TestReportCellsCarryDigest(t *testing.T) {
	e := exp("Jacobi", "small")
	hex64 := regexp.MustCompile(`^[0-9a-f]{64}$`)
	check := func(grid string, p Point, c Cell, collect bool) {
		t.Helper()
		r := CellReport(p.Exp, p.Config, p.Procs, c)
		cfg, err := p.engineConfig(collect)
		if err != nil {
			t.Fatal(err)
		}
		if r.Protocol != cfg.Protocol || r.Network != cfg.Network || r.Placement != cfg.Placement ||
			r.Protocol == "" || r.Network == "" || r.Placement == "" || r.Procs != p.Procs {
			t.Errorf("%s %s: report names %s/%s/%s p%d, want %s/%s/%s p%d", grid, p.Config.Label,
				r.Protocol, r.Network, r.Placement, r.Procs, cfg.Protocol, cfg.Network, cfg.Placement, p.Procs)
		}
		if c.Derived {
			if !r.Derived || r.Digest != "" {
				t.Errorf("%s %s/%s/%s: derived cell reports derived=%v digest %q", grid, r.Protocol, r.Network, r.Config, r.Derived, r.Digest)
			}
			return
		}
		if r.Derived || !hex64.MatchString(r.Digest) {
			t.Errorf("%s %s/%s/%s: derived=%v digest %q", grid, r.Protocol, r.Network, r.Config, r.Derived, r.Digest)
		}
		// A contended network's timing still follows the host's goroutine
		// order (DESIGN §14), so only ideal cells have one digest per run.
		if r.Network != "ideal" {
			return
		}
		if want := serialReference(t, []Point{p}, collect)[0].Digest; r.Digest != want {
			t.Errorf("%s %s/%s/%s: digest %q, runCell's %q", grid, r.Protocol, r.Network, r.Config, r.Digest, want)
		}
	}

	for _, g := range []struct {
		name    string
		points  []Point
		collect bool
	}{
		{"table 1", Table1Points([]Experiment{e}, Config{}), true},
		{"protocols", ProtocolPoints([]Experiment{e}, Procs), true},
		{"placements", PlacementPoints([]Experiment{e}, Procs, nil, []string{"ideal"}), false},
	} {
		cells, err := RunGrid(g.points, g.collect)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range g.points {
			check(g.name, p, cells[i], g.collect)
		}
	}

	prev := SetNetworkDerivation(true)
	defer SetNetworkDerivation(prev)
	ncs, err := RunNetworkComparison([]Experiment{e}, Procs, []string{"ideal", "bus"})
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	for _, row := range ncs[0].Rows {
		for _, c := range row.Cells {
			cfg, _ := ConfigByLabel(c.Config)
			cfg.Protocol, cfg.Network = c.Protocol, row.Network
			check("networks", Point{e, cfg, Procs}, c.Cell, false)
			if c.Cell.Derived {
				derived++
			}
		}
	}
	if derived == 0 {
		t.Error("the network sweep derived no cell")
	}
}
