package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/tmk"
)

// serialReference runs each point alone through runCell, one after
// another: the per-cell loop every sweep was before the grid runner.
func serialReference(t *testing.T, points []Point, collect bool) []Cell {
	t.Helper()
	cells := make([]Cell, len(points))
	for i, p := range points {
		cell, err := runCell(p.Exp, p.Config, p.Procs, collect, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell
	}
	return cells
}

// sameCell compares a sweep's cell with the serial reference's. The
// protocol and placement accounting must match on every network; on
// the contention-free model, which prices independently of host
// scheduling, every field must, Stats included.
func sameCell(got, want Cell, network string) bool {
	if cfg, _ := (tmk.Config{Network: network}).Resolve(); cfg.Network == "ideal" {
		return reflect.DeepEqual(got, want)
	}
	return got.Msgs == want.Msgs && got.Bytes == want.Bytes &&
		got.SwitchedUnits == want.SwitchedUnits && got.Rehomes == want.Rehomes &&
		got.RehomeBytes == want.RehomeBytes && got.HandoffBytes == want.HandoffBytes &&
		got.Derived == want.Derived
}

// withoutMake drops the experiments' constructors, which
// reflect.DeepEqual cannot compare, from a copy of points.
func withoutMake(points []Point) []Point {
	out := slices.Clone(points)
	for i := range out {
		out[i].Exp.Make = nil
	}
	return out
}

// TestGridMatchesSerialReference: each point builder returns exactly the
// hand-listed points, in order — the renderers and dsmbench -json read
// cells back by position — and every grid, run through RunGrid, and the
// network sweep with derivation off return, at any pool width, the cells
// the serial per-cell loop returns, in the same order.
func TestGridMatchesSerialReference(t *testing.T) {
	es := []Experiment{exp("Jacobi", "small"), exp("MGS", "small")}
	networks := []string{"ideal", "bus", "switch"}
	prev := SetNetworkDerivation(false)
	defer SetNetworkDerivation(prev)

	type sweepCase struct {
		name    string
		points  []Point // the serial loop, in the sweep's output order
		collect bool
		run     func() ([]Cell, error) // the sweep, flattened in output order
	}
	var cases []sweepCase
	grid := func(name string, points, built []Point, collect bool) {
		if !reflect.DeepEqual(withoutMake(built), withoutMake(points)) {
			t.Fatalf("%s builder:\n got %+v\nwant %+v", name, withoutMake(built), withoutMake(points))
		}
		cases = append(cases, sweepCase{name, points, collect, func() ([]Cell, error) {
			return RunGrid(built, collect)
		}})
	}

	var pts []Point
	for _, e := range es {
		for _, proto := range tmk.ProtocolNames() {
			pts = append(pts, Point{e, Config{Label: "4K", Unit: 1, Protocol: proto}, Procs})
		}
	}
	grid("protocols", pts, ProtocolPoints(es, Procs), true)

	pts = nil
	for _, e := range es {
		for _, network := range PlacementNetworks() {
			pts = append(pts, Point{e, Config{Label: "4K", Unit: 1, Protocol: "homeless", Network: network, Placement: tmk.DefaultPlacement}, Procs})
			for _, placement := range tmk.PlacementNames() {
				for _, protocol := range placementProtocols {
					pts = append(pts, Point{e, Config{Label: "4K", Unit: 1, Protocol: protocol, Network: network, Placement: placement}, Procs})
				}
			}
		}
	}
	grid("placements", pts, PlacementPoints(es, Procs, nil, nil), false)

	pts = nil
	axes := Config{Protocol: "home", Network: "bus", Placement: "block"}
	for _, e := range es {
		pts = append(pts,
			Point{e, Config{Label: "seq", Unit: 1, Protocol: "home", Network: "bus", Placement: "block"}, 1},
			Point{e, Config{Label: "4K", Unit: 1, Protocol: "home", Network: "bus", Placement: "block"}, Procs})
	}
	grid("table 1", pts, Table1Points(es, axes), true)

	pts = nil
	for _, e := range es {
		for _, c := range Configs() {
			pts = append(pts, Point{e, c, Procs})
		}
	}
	grid("figure", pts, FigurePoints(es, Configs()), true)

	pts = nil
	for _, e := range es {
		for _, network := range networks {
			for _, c := range networkCellConfigs() {
				c.Network = network
				pts = append(pts, Point{e, c, Procs})
			}
		}
	}
	cases = append(cases, sweepCase{"networks", pts, false, func() ([]Cell, error) {
		ncs, err := RunNetworkComparison(es, Procs, networks)
		var out []Cell
		for _, nc := range ncs {
			for _, row := range nc.Rows {
				for _, c := range row.Cells {
					out = append(out, c.Cell)
				}
			}
		}
		return out, err
	}})

	for _, sc := range cases {
		want := serialReference(t, sc.points, sc.collect)
		for _, width := range []int{1, 2, 8} {
			withPool(width, func() {
				got, err := sc.run()
				if err != nil {
					t.Fatalf("%s, width %d: %v", sc.name, width, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s, width %d: %d cells, reference %d", sc.name, width, len(got), len(want))
				}
				for i, p := range sc.points {
					if !sameCell(got[i], want[i], p.Config.Network) {
						t.Errorf("%s, width %d, cell %d (%s %s [%s] %s/%s/%s, %d procs):\n got %+v\nwant %+v",
							sc.name, width, i, p.Exp.App, p.Exp.Dataset, p.Config.Label,
							p.Config.Protocol, p.Config.Network, p.Config.Placement, p.Procs, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestGridSharesAliasedCells: points that spell one engine configuration
// differently — a default left empty or written out in any case — run
// the engine once. The key is the engine's own resolution; this binary
// links nothing that could supply another.
func TestGridSharesAliasedCells(t *testing.T) {
	runs := &engineRuns{flying: map[string]int{}, highest: map[string]int{}}
	e := runs.watch(exp("Jacobi", "small"))
	cells, err := RunGrid([]Point{
		{e, Config{Label: "4K", Unit: 1}, Procs},
		{e, Config{Label: "4K", Unit: 1, Network: "IDEAL", Placement: "rr", Scale: "sparse"}, Procs},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if runs.total != 1 {
		t.Fatalf("%d engine runs for one aliased cell, want 1", runs.total)
	}
	if !reflect.DeepEqual(cells[0], cells[1]) {
		t.Fatalf("aliased points got different cells: %+v, %+v", cells[0], cells[1])
	}
}

// TestGridErrorNamesTheFailingCell: one bad point fails the grid, and
// the error says which cell it was.
func TestGridErrorNamesTheFailingCell(t *testing.T) {
	e := exp("Jacobi", "small")
	bad := Config{Label: "bad", Unit: 2, Dynamic: true, Protocol: "home", Network: "bus", Placement: "firsttouch"}
	_, err := RunGrid([]Point{{e, Configs()[0], Procs}, {e, bad, Procs}}, false)
	if err == nil {
		t.Fatal("a dynamic multi-page-unit cell must fail")
	}
	for _, want := range []string{"Jacobi", "small", "[bad]", "home", "bus", "firsttouch"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestRunScaling pins the scaling sweep's shape at one small size:
// curves in protocol × network × mode order and a wall clock on every
// point, for both ScalingModes plus a sparse/central arm. Dense and
// sparse clocks under one barrier fabric must agree exactly at 8 procs
// (DESIGN §13); the tree fabric's traffic differs by construction, so
// sparse/tree is held to its own serial run instead. Bad axis names are
// rejected before any engine run.
func TestRunScaling(t *testing.T) {
	e := exp("Jacobi", "small")
	dense, tree := ScalingModes()[0], ScalingModes()[1]
	sparse := ScalingMode{Name: "sparse/central", Scale: tmk.ScaleSparse, Barrier: "central"}
	modes := []ScalingMode{dense, sparse, tree}
	protocols, networks := []string{"homeless", "home"}, []string{"ideal", "bus"}
	curves, err := RunScaling(e, protocols, networks, []int{8}, modes)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, proto := range protocols {
		for _, network := range networks {
			for _, mode := range modes {
				if i >= len(curves) {
					t.Fatalf("only %d curves", len(curves))
				}
				c := curves[i]
				i++
				if c.Protocol != proto || c.Network != network || c.Mode != mode {
					t.Fatalf("curve %d is %s/%s/%s, want %s/%s/%s", i-1, c.Protocol, c.Network, c.Mode.Name, proto, network, mode.Name)
				}
				if len(c.Points) != 1 || c.Points[0].Procs != 8 || c.Points[0].Wall <= 0 {
					t.Fatalf("%s/%s/%s points: %+v", proto, network, mode.Name, c.Points)
				}
			}
			d, s, tr := curves[i-3].Points[0].Cell, curves[i-2].Points[0].Cell, curves[i-1].Points[0].Cell
			if d.Msgs != s.Msgs || d.Bytes != s.Bytes || (network == "ideal" && d.Time != s.Time) {
				t.Errorf("%s/%s: dense %d msgs/%d bytes/%v, sparse %d/%d/%v", proto, network,
					d.Msgs, d.Bytes, d.Time, s.Msgs, s.Bytes, s.Time)
			}
			want := serialReference(t, []Point{{e, Config{
				Label: "4K", Unit: 1, Protocol: proto, Network: network,
				Scale: tree.Scale, Barrier: tree.Barrier, BarrierRadix: tree.Radix,
			}, 8}}, false)[0]
			if !sameCell(tr, want, network) {
				t.Errorf("%s/%s/%s: %+v, serial run %+v", proto, network, tree.Name, tr, want)
			}
		}
	}
	if i != len(curves) {
		t.Fatalf("%d curves, want %d", len(curves), i)
	}

	runs := &engineRuns{flying: map[string]int{}, highest: map[string]int{}}
	watched := runs.watch(e)
	if _, err := RunScaling(watched, []string{"homeless", "write-update"}, networks, []int{8}, modes); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := RunScaling(watched, protocols, []string{"ideal", "token-ring"}, []int{8}, modes); err == nil {
		t.Error("unknown network must error")
	}
	if runs.total != 0 {
		t.Errorf("%d engine runs before the bad name was rejected", runs.total)
	}
}
