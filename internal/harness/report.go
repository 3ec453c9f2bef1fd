package harness

import (
	"repro/internal/instrument"
	"repro/internal/tmk"
)

// The JSON report types are the machine-readable counterpart of the
// render functions: cmd/dsmbench and cmd/dsmrun emit them under -json
// so benchmark trajectories can be recorded without scraping tables.

// ResultJSON is one run's accounting.
type ResultJSON struct {
	TimeSeconds  float64 `json:"time_seconds"`
	Messages     int     `json:"messages"`
	Bytes        int     `json:"bytes"`
	Network      string  `json:"network,omitempty"`
	QueueSeconds float64 `json:"queue_seconds"`
	Faults       int     `json:"faults"`
	// SwitchedUnits, ProtocolSwitches, and HomeUnits carry the adaptive
	// protocol's accounting (omitted under static protocols).
	SwitchedUnits    int `json:"switched_units,omitempty"`
	ProtocolSwitches int `json:"protocol_switches,omitempty"`
	HomeUnits        int `json:"home_units,omitempty"`
	// Placement names the run's home-placement policy; Rehomes,
	// RehomeBytes, and HandoffBytes carry the placement layer's
	// accounting (omitted when zero).
	Placement    string            `json:"placement,omitempty"`
	Rehomes      int               `json:"rehomes,omitempty"`
	RehomeBytes  int               `json:"rehome_bytes,omitempty"`
	HandoffBytes int               `json:"handoff_bytes,omitempty"`
	Stats        *instrument.Stats `json:"stats,omitempty"`
}

// ResultReport converts an engine Result.
func ResultReport(r *tmk.Result) ResultJSON {
	return ResultJSON{
		TimeSeconds:      r.Time.Seconds(),
		Messages:         r.Messages,
		Bytes:            r.Bytes,
		Network:          r.Network,
		QueueSeconds:     r.QueueDelay.Seconds(),
		Faults:           r.Faults,
		SwitchedUnits:    r.SwitchedUnits,
		ProtocolSwitches: r.ProtocolSwitches,
		HomeUnits:        r.HomeUnits,
		Placement:        r.Placement,
		Rehomes:          r.Rehomes,
		RehomeBytes:      r.RehomeBytes,
		HandoffBytes:     r.HandoffBytes,
		Stats:            r.Stats,
	}
}

// CellJSON is one experiment × configuration cell.
type CellJSON struct {
	App          string  `json:"app"`
	Dataset      string  `json:"dataset"`
	Paper        string  `json:"paper,omitempty"`
	Config       string  `json:"config"`
	Protocol     string  `json:"protocol"`
	Network      string  `json:"network"`
	Placement    string  `json:"placement"`
	Procs        int     `json:"procs"`
	TimeSeconds  float64 `json:"time_seconds"`
	QueueSeconds float64 `json:"queue_seconds"`
	Messages     int     `json:"messages"`
	Bytes        int     `json:"bytes"`
	// SwitchedUnits counts the units the adaptive protocol switched
	// engine for (omitted under static protocols); Rehomes,
	// RehomeBytes, and HandoffBytes carry the placement layer's
	// accounting (omitted when zero).
	SwitchedUnits int               `json:"switched_units,omitempty"`
	Rehomes       int               `json:"rehomes,omitempty"`
	RehomeBytes   int               `json:"rehome_bytes,omitempty"`
	HandoffBytes  int               `json:"handoff_bytes,omitempty"`
	Stats         *instrument.Stats `json:"stats,omitempty"`
	// Digest is the engine run's tmk.Result.Digest (omitted for a
	// derived cell): two cells with equal digests behaved identically.
	Digest string `json:"digest,omitempty"`
}

// CellReport converts one harness cell run under cfg.
func CellReport(e Experiment, cfg Config, procs int, c Cell) CellJSON {
	// The cell ran, so its configuration resolves.
	ec, _ := Point{e, cfg, procs}.engineConfig(false)
	return CellJSON{
		App:           e.App,
		Dataset:       e.Dataset,
		Paper:         e.Paper,
		Config:        cfg.Label,
		Protocol:      ec.Protocol,
		Network:       ec.Network,
		Placement:     ec.Placement,
		Procs:         procs,
		TimeSeconds:   c.Time.Seconds(),
		QueueSeconds:  c.Queue.Seconds(),
		Messages:      c.Msgs,
		Bytes:         c.Bytes,
		SwitchedUnits: c.SwitchedUnits,
		Rehomes:       c.Rehomes,
		RehomeBytes:   c.RehomeBytes,
		HandoffBytes:  c.HandoffBytes,
		Stats:         c.Stats,
		Digest:        c.Digest,
	}
}

// ProtocolRowJSON is one protocol's row of a comparison.
type ProtocolRowJSON struct {
	Protocol    string  `json:"protocol"`
	TimeSeconds float64 `json:"time_seconds"`
	Messages    int     `json:"messages"`
	Bytes       int     `json:"bytes"`
	WireBytes   int     `json:"wire_bytes"`
	// SwitchedUnits counts the units the adaptive protocol switched
	// engine for (omitted under static protocols).
	SwitchedUnits int               `json:"switched_units,omitempty"`
	Stats         *instrument.Stats `json:"stats,omitempty"`
}

// ProtocolComparisonJSON is one experiment's protocol comparison.
type ProtocolComparisonJSON struct {
	App     string            `json:"app"`
	Dataset string            `json:"dataset"`
	Config  string            `json:"config"`
	Rows    []ProtocolRowJSON `json:"rows"`
}

// ProtocolComparisonReport converts a protocol comparison.
func ProtocolComparisonReport(pc ProtocolComparison) ProtocolComparisonJSON {
	out := ProtocolComparisonJSON{App: pc.App, Dataset: pc.Dataset, Config: pc.Config}
	for _, r := range pc.Rows {
		out.Rows = append(out.Rows, ProtocolRowJSON{
			Protocol:      r.Protocol,
			TimeSeconds:   r.Cell.Time.Seconds(),
			Messages:      r.Cell.Msgs,
			Bytes:         r.Cell.Bytes,
			WireBytes:     r.Cell.Stats.TotalWireBytes,
			SwitchedUnits: r.Cell.SwitchedUnits,
			Stats:         r.Cell.Stats,
		})
	}
	return out
}

// NetworkCellJSON is one (protocol, configuration) outcome on one
// network model.
type NetworkCellJSON struct {
	Protocol     string  `json:"protocol"`
	Config       string  `json:"config"`
	TimeSeconds  float64 `json:"time_seconds"`
	QueueSeconds float64 `json:"queue_seconds"`
	Messages     int     `json:"messages"`
	Bytes        int     `json:"bytes"`
	// SwitchedUnits counts the units the adaptive protocol switched
	// engine for (omitted under static protocols).
	SwitchedUnits int `json:"switched_units,omitempty"`
	// Derived marks a cell priced by trace replay instead of an engine
	// run (see Cell.Derived).
	Derived bool `json:"derived,omitempty"`
}

// NetworkRowJSON is one network model's cells of a comparison.
type NetworkRowJSON struct {
	Network string            `json:"network"`
	Cells   []NetworkCellJSON `json:"cells"`
}

// NetworkComparisonJSON is one experiment's network-sensitivity sweep.
type NetworkComparisonJSON struct {
	App     string           `json:"app"`
	Dataset string           `json:"dataset"`
	Rows    []NetworkRowJSON `json:"rows"`
}

// PlacementCellJSON is one (protocol, network) outcome under one
// placement policy.
type PlacementCellJSON struct {
	Placement    string  `json:"placement"`
	Protocol     string  `json:"protocol"`
	Network      string  `json:"network"`
	TimeSeconds  float64 `json:"time_seconds"`
	QueueSeconds float64 `json:"queue_seconds"`
	Messages     int     `json:"messages"`
	Bytes        int     `json:"bytes"`
	// SwitchedUnits, Rehomes, RehomeBytes, and HandoffBytes carry the
	// adaptive and placement accounting (omitted when zero).
	SwitchedUnits int `json:"switched_units,omitempty"`
	Rehomes       int `json:"rehomes,omitempty"`
	RehomeBytes   int `json:"rehome_bytes,omitempty"`
	HandoffBytes  int `json:"handoff_bytes,omitempty"`
}

// PlacementComparisonJSON is one experiment's home-placement sweep.
type PlacementComparisonJSON struct {
	App     string              `json:"app"`
	Dataset string              `json:"dataset"`
	Cells   []PlacementCellJSON `json:"cells"`
}

// PlacementComparisonReport converts a placement comparison.
func PlacementComparisonReport(pc PlacementComparison) PlacementComparisonJSON {
	out := PlacementComparisonJSON{App: pc.App, Dataset: pc.Dataset}
	for _, c := range pc.Cells {
		out.Cells = append(out.Cells, PlacementCellJSON{
			Placement:     c.Placement,
			Protocol:      c.Protocol,
			Network:       c.Network,
			TimeSeconds:   c.Cell.Time.Seconds(),
			QueueSeconds:  c.Cell.Queue.Seconds(),
			Messages:      c.Cell.Msgs,
			Bytes:         c.Cell.Bytes,
			SwitchedUnits: c.Cell.SwitchedUnits,
			Rehomes:       c.Cell.Rehomes,
			RehomeBytes:   c.Cell.RehomeBytes,
			HandoffBytes:  c.Cell.HandoffBytes,
		})
	}
	return out
}

// NetworkComparisonReport converts a network comparison.
func NetworkComparisonReport(nc NetworkComparison) NetworkComparisonJSON {
	out := NetworkComparisonJSON{App: nc.App, Dataset: nc.Dataset}
	for _, row := range nc.Rows {
		rj := NetworkRowJSON{Network: row.Network}
		for _, c := range row.Cells {
			rj.Cells = append(rj.Cells, NetworkCellJSON{
				Protocol:      c.Protocol,
				Config:        c.Config,
				TimeSeconds:   c.Cell.Time.Seconds(),
				QueueSeconds:  c.Cell.Queue.Seconds(),
				Messages:      c.Cell.Msgs,
				Bytes:         c.Cell.Bytes,
				SwitchedUnits: c.Cell.SwitchedUnits,
				Derived:       c.Cell.Derived,
			})
		}
		out.Rows = append(out.Rows, rj)
	}
	return out
}

// ExperimentJSON is one experiment with its cells across configurations.
type ExperimentJSON struct {
	App     string     `json:"app"`
	Dataset string     `json:"dataset"`
	Paper   string     `json:"paper,omitempty"`
	Cells   []CellJSON `json:"cells"`
}

// Table1RowJSON is one line of Table 1.
type Table1RowJSON struct {
	App        string  `json:"app"`
	Dataset    string  `json:"dataset"`
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	Speedup    float64 `json:"speedup"`
}

// TrialsJSON is a multi-trial run of one workload under one
// configuration: per-trial results plus the min/mean/max aggregate.
type TrialsJSON struct {
	App       string `json:"app"`
	Dataset   string `json:"dataset"`
	Paper     string `json:"paper,omitempty"`
	Config    string `json:"config"`
	Protocol  string `json:"protocol"`
	Network   string `json:"network"`
	Placement string `json:"placement"`
	Procs     int    `json:"procs"`
	UnitPages int    `json:"unit_pages"`
	Dynamic   bool   `json:"dynamic"`
	// Derived marks a report whose totals were re-priced from another
	// network's stored capture by trace replay (expsvc derived serving)
	// instead of an engine execution. Message and byte totals are exact;
	// time and queue re-create the recorded pricing order.
	Derived          bool         `json:"derived,omitempty"`
	Trials           []ResultJSON `json:"trials"`
	MinTimeSeconds   float64      `json:"min_time_seconds"`
	MeanTimeSeconds  float64      `json:"mean_time_seconds"`
	MaxTimeSeconds   float64      `json:"max_time_seconds"`
	MeanMessages     float64      `json:"mean_messages"`
	MeanBytes        float64      `json:"mean_bytes"`
	MeanQueueSeconds float64      `json:"mean_queue_seconds"`
}

// TrialsReport converts a trial summary of workload e run under cfg, a
// resolved configuration (tmk.Config.Resolve).
func TrialsReport(app, dataset, paper string, cfg tmk.Config, ts *tmk.TrialSummary) TrialsJSON {
	out := TrialsJSON{
		App:              app,
		Dataset:          dataset,
		Paper:            paper,
		Config:           LabelFor(cfg.UnitPages, cfg.Dynamic),
		Protocol:         cfg.Protocol,
		Network:          cfg.Network,
		Placement:        cfg.Placement,
		Procs:            cfg.Procs,
		UnitPages:        cfg.UnitPages,
		Dynamic:          cfg.Dynamic,
		MinTimeSeconds:   ts.MinTime.Seconds(),
		MeanTimeSeconds:  ts.MeanTime.Seconds(),
		MaxTimeSeconds:   ts.MaxTime.Seconds(),
		MeanMessages:     ts.MeanMessages,
		MeanBytes:        ts.MeanBytes,
		MeanQueueSeconds: ts.MeanQueueDelay.Seconds(),
	}
	for _, r := range ts.Trials {
		out.Trials = append(out.Trials, ResultReport(r))
	}
	return out
}
