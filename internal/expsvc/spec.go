// Package expsvc is the DSM experiment service: a long-running HTTP
// control plane over the workload registry and the simulation engine.
// A client POSTs an experiment spec (application × dataset × protocol ×
// network × placement × unit size × trials) to /v1/run and receives the
// same JSON report the CLIs emit (harness.TrialsJSON). Between the
// handlers and the engine sit the two mechanisms that make the service
// cheaper than one-shot CLI runs under repeat and concurrent traffic:
//
//   - a content-addressed result cache keyed by a canonical spec hash
//     (registry-resolved defaults and stable field ordering, so
//     "network":"ideal" and an omitted network address the same cell).
//     Runs are deterministic, so entries never go stale — the cache is
//     TTL-free and bounded only by an LRU entry count; and
//
//   - a singleflight coalescer: N identical concurrent specs execute
//     the engine exactly once, and every caller shares the one result.
//
// cmd/dsmd wraps the service in env-var configuration and graceful
// shutdown; see DESIGN.md §10.
package expsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/registry"
	"repro/internal/tmk"
)

// Service-side bounds on a spec. The engine itself accepts anything
// positive; a shared server does not hand one request an unbounded
// slice of the machine.
const (
	// MaxProcs bounds the simulated processor count of one request.
	// Raised from 128 with the sparse-clock/tree-barrier work: the
	// engine's scaling representation makes 1024-processor cells
	// routine (see DESIGN.md §13).
	MaxProcs = 1024
	// MaxTrials bounds the independent trials of one request.
	MaxTrials = 64
	// MaxUnitPages bounds the static consistency unit of one request.
	MaxUnitPages = 64
)

// Spec is the wire form of one experiment request: which registry cell
// to run and under which engine configuration. Every field except App
// is optional; omitted fields take the same defaults the CLIs use, and
// the canonical hash is computed after defaulting, so a spec that spells
// a default out loud addresses the same cached cell as one that omits
// it.
type Spec struct {
	// App is the application name, case-insensitive ("jacobi", "MGS").
	App string `json:"app"`
	// Dataset selects the input size exactly as dsmrun -dataset does:
	// exact name, substring ("1024"), or small/medium/large; empty is
	// the app's default (primary paper) dataset.
	Dataset string `json:"dataset,omitempty"`
	// UnitPages is the static consistency unit in 4 KB pages (default 1).
	UnitPages int `json:"unit_pages,omitempty"`
	// Dynamic enables §4 dynamic aggregation (requires unit_pages ≤ 1).
	Dynamic bool `json:"dynamic,omitempty"`
	// Protocol, Network, and Placement name the coherence protocol,
	// interconnect model, and home-placement policy (case-insensitive;
	// empty = registry defaults: homeless, ideal, rr).
	Protocol  string `json:"protocol,omitempty"`
	Network   string `json:"network,omitempty"`
	Placement string `json:"placement,omitempty"`
	// Scale names the engine representation ("sparse" or "dense";
	// case-insensitive; empty = the sparse default). Barrier names the
	// barrier fabric ("central" or "tree"; empty = central), and
	// BarrierRadix sets the tree fabric's fan-in (0 = the engine
	// default; canonicalized away under central, where it is inert).
	Scale        string `json:"scale,omitempty"`
	Barrier      string `json:"barrier,omitempty"`
	BarrierRadix int    `json:"barrier_radix,omitempty"`
	// Procs is the simulated processor count (default 8, the paper's).
	Procs int `json:"procs,omitempty"`
	// Trials is the number of independent trials (default 1).
	Trials int `json:"trials,omitempty"`
	// Collect enables the §5.3 instrumentation; the full Stats breakdown
	// rides along in every trial of the report. Off (the default) runs
	// are faster and responses smaller.
	Collect bool `json:"collect,omitempty"`
}

// FieldError is a spec validation failure tied to the offending field,
// so a 400 response can name exactly what to fix.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e *FieldError) Error() string { return "spec." + e.Field + ": " + e.Msg }

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// canonical is the resolved spec in hashing form: every field explicit,
// registry-canonical names, defaults filled. Two Specs that resolve to
// the same canonical struct are the same experiment cell — json.Marshal
// over a struct emits fields in declaration order, so the serialization
// (and therefore the hash) is stable by construction.
type canonical struct {
	App          string `json:"app"`
	Dataset      string `json:"dataset"`
	UnitPages    int    `json:"unit_pages"`
	Dynamic      bool   `json:"dynamic"`
	Protocol     string `json:"protocol"`
	Network      string `json:"network"`
	Placement    string `json:"placement"`
	Scale        string `json:"scale"`
	Barrier      string `json:"barrier"`
	BarrierRadix int    `json:"barrier_radix"`
	Procs        int    `json:"procs"`
	Trials       int    `json:"trials"`
	Collect      bool   `json:"collect"`
}

// Resolved is a validated spec bound to its registry entry, ready to
// hash and to run.
type Resolved struct {
	// Entry is the workload factory the spec named.
	Entry apps.Entry
	c     canonical
	cfg   tmk.Config
}

// Resolve validates a spec against the workload, protocol, network, and
// placement registries and fills every default, returning the resolved
// form or a *FieldError naming the offending field. Resolution is the
// canonicalization step: after it, equivalent specs (defaulted vs.
// explicit, substring vs. full dataset name, any name casing) are
// byte-identical.
func Resolve(s Spec) (*Resolved, error) {
	if strings.TrimSpace(s.App) == "" {
		return nil, fieldErrf("app", "application name is required (see /v1/registry)")
	}
	entry, ok := apps.Lookup(s.App, s.Dataset)
	if !ok {
		names := apps.Apps()
		field, msg := "app", fmt.Sprintf("unknown application %q (known: %s)",
			s.App, strings.Join(names, ", "))
		for _, name := range names {
			if strings.EqualFold(name, s.App) {
				field = "dataset"
				msg = fmt.Sprintf("application %s has no dataset matching %q (see /v1/registry)",
					name, s.Dataset)
				break
			}
		}
		return nil, fieldErrf(field, "%s", msg)
	}

	switch {
	case s.UnitPages < 0:
		return nil, fieldErrf("unit_pages", "must be positive (got %d)", s.UnitPages)
	case s.UnitPages > MaxUnitPages:
		return nil, fieldErrf("unit_pages", "at most %d pages (got %d)", MaxUnitPages, s.UnitPages)
	case s.Procs < 0:
		return nil, fieldErrf("procs", "must be positive (got %d)", s.Procs)
	case s.Procs > MaxProcs:
		return nil, fieldErrf("procs", "at most %d (got %d)", MaxProcs, s.Procs)
	case s.Trials < 0:
		return nil, fieldErrf("trials", "must be positive (got %d)", s.Trials)
	case s.Trials > MaxTrials:
		return nil, fieldErrf("trials", "at most %d (got %d)", MaxTrials, s.Trials)
	}

	// Names and defaults are the engine's (tmk.Config.Resolve); what
	// follows is service policy.
	cfg, err := tmk.Config{
		Procs:        s.Procs,
		UnitPages:    s.UnitPages,
		Dynamic:      s.Dynamic,
		Protocol:     s.Protocol,
		Network:      s.Network,
		Placement:    s.Placement,
		Scale:        s.Scale,
		Barrier:      s.Barrier,
		BarrierRadix: s.BarrierRadix,
		Collect:      s.Collect,
	}.Resolve()
	if err != nil {
		var re *registry.Error
		if errors.As(err, &re) {
			return nil, fieldErrf(re.Field, "%s", re.Msg)
		}
		return nil, err
	}
	c := canonical{
		App:          entry.App,
		Dataset:      entry.Dataset,
		UnitPages:    cfg.UnitPages,
		Dynamic:      cfg.Dynamic,
		Protocol:     cfg.Protocol,
		Network:      cfg.Network,
		Placement:    cfg.Placement,
		Scale:        cfg.Scale,
		Barrier:      cfg.Barrier,
		BarrierRadix: cfg.BarrierRadix,
		Procs:        cfg.Procs,
		Trials:       max(s.Trials, 1),
		Collect:      cfg.Collect,
	}
	// A knob the configuration leaves inert is zero in the hash and the
	// engine default in the run, so spelling it changes neither.
	if c.Barrier == "central" {
		c.BarrierRadix, cfg.BarrierRadix = 0, tmk.DefaultBarrierRadix
	}
	return &Resolved{Entry: entry, c: c, cfg: cfg}, nil
}

// Hash is the spec's content address: the hex SHA-256 of the canonical
// serialization. Equal hash ⇔ equal resolved spec ⇔ (determinism) equal
// result — the property that lets the result cache skip TTLs entirely.
func (r *Resolved) Hash() string { return hashCanonical(r.c) }

func hashCanonical(c canonical) string {
	b, err := json.Marshal(c)
	if err != nil {
		// canonical is a flat struct of marshalable fields; this cannot
		// fail at run time.
		panic(fmt.Sprintf("expsvc: canonical spec marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Canonical returns the resolved spec in wire form — what the service
// actually ran after defaulting, echoed back to clients.
func (r *Resolved) Canonical() Spec { return Spec(r.c) }

// Procs returns the resolved processor count.
func (r *Resolved) Procs() int { return r.c.Procs }

// Trials returns the resolved trial count.
func (r *Resolved) Trials() int { return r.c.Trials }

// EngineConfig is the resolved engine configuration the spec runs under.
// Segment size and lock count are workload properties that
// apps.NewSystem fills in.
func (r *Resolved) EngineConfig() tmk.Config { return r.cfg }
