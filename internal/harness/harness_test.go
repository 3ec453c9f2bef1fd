package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestConfigsMatchPaper(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[0].Label != "4K" || cfgs[0].Unit != 1 || cfgs[0].Dynamic {
		t.Fatalf("cfg0 = %+v", cfgs[0])
	}
	if cfgs[2].Label != "16K" || cfgs[2].Unit != 4 {
		t.Fatalf("cfg2 = %+v", cfgs[2])
	}
	if !cfgs[3].Dynamic || cfgs[3].Unit != 1 {
		t.Fatalf("cfg3 = %+v", cfgs[3])
	}
}

func TestConfigByLabelAndLabelFor(t *testing.T) {
	for _, c := range Configs() {
		got, ok := ConfigByLabel(c.Label)
		if !ok || got != c {
			t.Fatalf("ConfigByLabel(%q) = %+v, %v", c.Label, got, ok)
		}
		if LabelFor(c.Unit, c.Dynamic) != c.Label {
			t.Fatalf("LabelFor(%d, %v) = %q, want %q",
				c.Unit, c.Dynamic, LabelFor(c.Unit, c.Dynamic), c.Label)
		}
	}
	if got, ok := ConfigByLabel("dyn"); !ok || !got.Dynamic {
		t.Fatalf("ConfigByLabel is not case-insensitive: %+v, %v", got, ok)
	}
	if _, ok := ConfigByLabel("32K"); ok {
		t.Fatal("unknown label must not resolve")
	}
}

func TestExperimentInventory(t *testing.T) {
	if got := len(Figure1()); got != 4 {
		t.Fatalf("figure 1 experiments = %d, want 4", got)
	}
	if got := len(Figure2()); got != 11 {
		t.Fatalf("figure 2 experiments = %d, want 11 (2 Jacobi + 3 FFT + 3 MGS + 3 Shallow)", got)
	}
	if got := len(Table1()); got != 8 {
		t.Fatalf("table 1 rows = %d, want 8 applications", got)
	}
	if got := len(Figure3()); got != 4 {
		t.Fatalf("figure 3 experiments = %d, want 4", got)
	}
	for _, e := range Figure2() {
		if e.Paper == "" {
			t.Fatalf("%s %s missing paper dataset mapping", e.App, e.Dataset)
		}
	}
}

// One full experiment through all four configurations, rendered.
func TestRunFigureSmoke(t *testing.T) {
	e := Figure2()[0] // Jacobi row=1pg: fast
	points := FigurePoints([]Experiment{e}, Configs())
	cells, err := RunGrid(points, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Configs()) {
		t.Fatalf("figure has %d cells, want %d", len(cells), len(Configs()))
	}
	var buf bytes.Buffer
	RenderFigure(&buf, points, cells)
	out := buf.String()
	for _, want := range []string{"Jacobi", "time", "messages", "piggybacked", "4K", "Dyn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if cells[0].Time <= 0 || points[3].Config.Label != "Dyn" || cells[3].Stats == nil {
		t.Fatal("cells incomplete")
	}
}

func TestRunTable1Subset(t *testing.T) {
	points := Table1Points(Table1()[5:6], Config{}) // Jacobi only: fast
	cells, err := RunGrid(points, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || points[0].Exp.App != "Jacobi" || points[0].Procs != 1 || points[1].Procs != Procs {
		t.Fatalf("points = %+v", points)
	}
	if speedup := cells[0].Time.Seconds() / cells[1].Time.Seconds(); speedup <= 1 {
		t.Fatalf("speedup = %v, want > 1 on 8 processors", speedup)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, points, cells)
	if !strings.Contains(buf.String(), "Speedup") || !strings.Contains(buf.String(), "Jacobi") {
		t.Fatalf("table 1 render:\n%s", buf.String())
	}
}

func TestRenderSignature(t *testing.T) {
	e := Figure2()[5] // MGS vec=1pg
	cfgs := Configs()
	points := FigurePoints([]Experiment{e}, []Config{cfgs[0], cfgs[2]}) // 4K, 16K
	cells, err := RunGrid(points, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderSignature(&buf, points, cells)
	out := buf.String()
	if !strings.Contains(out, "4K") || !strings.Contains(out, "16K") {
		t.Fatalf("signature render:\n%s", out)
	}
	// MGS at 16K must show multi-writer buckets.
	if !strings.Contains(out, "[2:") && !strings.Contains(out, "[3:") && !strings.Contains(out, "[4:") {
		t.Fatalf("16K MGS signature has no multi-writer bucket:\n%s", out)
	}
}

// TestRunNetworkComparison sweeps one small experiment across the
// contention-free baseline and one contended model: the ideal rows
// carry zero queue delay, the contended rows carry some and never beat
// the uncontended time, and both text and JSON reports expose the
// queue-delay column.
func TestRunNetworkComparison(t *testing.T) {
	e := exp("Jacobi", "small")
	ncs, err := RunNetworkComparison([]Experiment{e}, Procs, []string{"ideal", "bus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ncs) != 1 || len(ncs[0].Rows) != 2 {
		t.Fatalf("comparison shape: %+v", ncs)
	}
	var idealBase, busBase *Cell
	for i := range ncs[0].Rows {
		row := &ncs[0].Rows[i]
		if len(row.Cells) != len(networkCellConfigs()) {
			t.Fatalf("row %s has %d cells", row.Network, len(row.Cells))
		}
		base := &row.Cells[0].Cell // homeless, 4K
		switch row.Network {
		case "ideal":
			idealBase = base
			for _, c := range row.Cells {
				if c.Cell.Queue != 0 {
					t.Fatalf("ideal cell %s/%s has queue %v", c.Protocol, c.Config, c.Cell.Queue)
				}
			}
		case "bus":
			busBase = base
			if base.Queue <= 0 {
				t.Fatal("bus base cell reports no queue delay")
			}
		}
	}
	if idealBase == nil || busBase == nil {
		t.Fatalf("missing rows: %+v", ncs[0].Rows)
	}
	if busBase.Time < idealBase.Time {
		t.Fatalf("bus time %v beat ideal %v — queuing can only add delay",
			busBase.Time, idealBase.Time)
	}

	var buf bytes.Buffer
	RenderNetworkComparison(&buf, ncs)
	out := buf.String()
	for _, want := range []string{"Network", "Queue(s)", "home×", "dyn×", "ideal", "bus"} {
		if !strings.Contains(out, want) {
			t.Fatalf("network table missing %q:\n%s", want, out)
		}
	}

	for _, row := range ncs[0].Rows {
		for _, c := range row.Cells {
			cfg, _ := ConfigByLabel(c.Config)
			cfg.Protocol, cfg.Network = c.Protocol, row.Network
			j := CellReport(e, cfg, Procs, c.Cell)
			if row.Network == "bus" && c.Protocol == "homeless" && c.Config == "4K" && j.QueueSeconds <= 0 {
				t.Fatalf("bus json cell missing queue seconds: %+v", j)
			}
		}
	}

	if _, err := RunNetworkComparison([]Experiment{e}, Procs, []string{"token-ring"}); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestRunPlacementComparison(t *testing.T) {
	e := exp("Jacobi", "small")
	points := PlacementPoints([]Experiment{e}, Procs, []string{"rr", "firsttouch"}, []string{"ideal"})
	cells, err := RunGrid(points, false)
	if err != nil {
		t.Fatal(err)
	}
	// One homeless baseline + 2 placements × 2 protocols on one network.
	if len(cells) != 1+2*len(placementProtocols) {
		t.Fatalf("cell count = %d: %+v", len(cells), points)
	}
	var base, rrHome, ftHome *Cell
	for i, p := range points {
		c := &cells[i]
		switch {
		case p.Config.Protocol == "homeless":
			base = c
		case p.Config.Protocol == "home" && p.Config.Placement == "rr":
			rrHome = c
		case p.Config.Protocol == "home" && p.Config.Placement == "firsttouch":
			ftHome = c
		}
	}
	if base == nil || rrHome == nil || ftHome == nil {
		t.Fatalf("missing cells: %+v", points)
	}
	if rrHome.Rehomes != 0 {
		t.Fatalf("rr rehomed %d times", rrHome.Rehomes)
	}
	if ftHome.Rehomes == 0 {
		t.Fatal("first-touch bound nothing on jacobi (proc 0 initializes every page)")
	}
	if ftHome.RehomeBytes != 0 {
		t.Fatalf("first-touch priced its bindings: %d bytes", ftHome.RehomeBytes)
	}
	if ftHome.Msgs >= rrHome.Msgs {
		t.Fatalf("first-touch (%d msgs) did not cut home traffic vs rr (%d)", ftHome.Msgs, rrHome.Msgs)
	}

	var buf bytes.Buffer
	RenderPlacementComparison(&buf, points, cells)
	out := buf.String()
	for _, want := range []string{"Placement", "hless(s)", "home×", "reh", "adapt×", "handKB", "firsttouch", "rr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("placement table missing %q:\n%s", want, out)
		}
	}

	for i, p := range points {
		if j := CellReport(p.Exp, p.Config, p.Procs, cells[i]); j.App != "Jacobi" || j.Placement == "" || j.Protocol == "" || j.Network == "" {
			t.Fatalf("json cell missing config echo: %+v", j)
		}
	}

	if _, err := RunGrid(PlacementPoints([]Experiment{e}, Procs, []string{"nearest"}, nil), false); err == nil {
		t.Fatal("unknown placement must error")
	}
	if _, err := RunGrid(PlacementPoints([]Experiment{e}, Procs, nil, []string{"token-ring"}), false); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestRenderMicroCalibration(t *testing.T) {
	var buf bytes.Buffer
	RenderMicro(&buf)
	out := buf.String()
	for _, want := range []string{"296", "861", "round trip", "barrier", "diff fetch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("micro table missing %q:\n%s", want, out)
		}
	}
}
