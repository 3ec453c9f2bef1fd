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

// CellJSON is one experiment × configuration cell: every dsmbench -json
// section is a list of them, in the order its table prints.
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
	// Digest is the engine run's tmk.Result.Digest: two cells with
	// equal digests behaved identically. Derived marks a cell priced by
	// trace replay instead of an engine run (see Cell.Derived); it has
	// no digest.
	Digest  string `json:"digest,omitempty"`
	Derived bool   `json:"derived,omitempty"`
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
		Derived:       c.Derived,
	}
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
