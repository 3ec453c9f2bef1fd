package expsvc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/tmk"
)

func mustResolve(t *testing.T, s Spec) *Resolved {
	t.Helper()
	r, err := Resolve(s)
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", s, err)
	}
	return r
}

// A spec that spells out every default must address the same cell as
// the minimal spec that omits them — the property that lets repeat
// traffic hit the cache regardless of client verbosity.
func TestHashDefaultedVsExplicit(t *testing.T) {
	minimal := mustResolve(t, Spec{App: "jacobi"})
	explicit := mustResolve(t, Spec{
		App:       "Jacobi",
		Dataset:   "128x512 (row=1pg)", // the app's default dataset
		UnitPages: 1,
		Protocol:  "homeless",
		Network:   "ideal",
		Placement: "rr",
		Procs:     harness.Procs,
		Trials:    1,
	})
	if got, want := explicit.Hash(), minimal.Hash(); got != want {
		t.Fatalf("explicit-defaults hash %s != minimal hash %s\ncanonical: %+v vs %+v",
			got, want, explicit.Canonical(), minimal.Canonical())
	}
}

func TestHashDatasetSubstringAndCase(t *testing.T) {
	full := mustResolve(t, Spec{App: "Jacobi", Dataset: "64x1024 (row=2pg)"})
	sub := mustResolve(t, Spec{App: "JACOBI", Dataset: "1024"})
	if full.Hash() != sub.Hash() {
		t.Fatalf("substring dataset resolves to different cell: %q vs %q",
			full.Canonical().Dataset, sub.Canonical().Dataset)
	}
	if full.Canonical().Dataset != "64x1024 (row=2pg)" {
		t.Fatalf("canonical dataset = %q", full.Canonical().Dataset)
	}
}

func TestHashDistinguishesCells(t *testing.T) {
	base := mustResolve(t, Spec{App: "jacobi"}).Hash()
	for name, s := range map[string]Spec{
		"unit":    {App: "jacobi", UnitPages: 2},
		"dynamic": {App: "jacobi", Dynamic: true},
		"proto":   {App: "jacobi", Protocol: "home"},
		"net":     {App: "jacobi", Network: "bus"},
		"place":   {App: "jacobi", Protocol: "home", Placement: "firsttouch"},
		"procs":   {App: "jacobi", Procs: 4},
		"trials":  {App: "jacobi", Trials: 2},
		"collect": {App: "jacobi", Collect: true},
		"dataset": {App: "jacobi", Dataset: "small"},
	} {
		if mustResolve(t, s).Hash() == base {
			t.Errorf("%s: spec %+v collided with the base cell", name, s)
		}
	}
}

func TestResolveFieldErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  Spec
		field string
	}{
		{"missing app", Spec{}, "app"},
		{"unknown app", Spec{App: "nosuch"}, "app"},
		{"unknown dataset", Spec{App: "jacobi", Dataset: "zzz"}, "dataset"},
		{"bad protocol", Spec{App: "jacobi", Protocol: "zzz"}, "protocol"},
		{"bad network", Spec{App: "jacobi", Network: "zzz"}, "network"},
		{"bad placement", Spec{App: "jacobi", Placement: "zzz"}, "placement"},
		{"dynamic multi-page", Spec{App: "jacobi", Dynamic: true, UnitPages: 2}, "unit_pages"},
		{"negative unit", Spec{App: "jacobi", UnitPages: -1}, "unit_pages"},
		{"huge unit", Spec{App: "jacobi", UnitPages: MaxUnitPages + 1}, "unit_pages"},
		{"negative procs", Spec{App: "jacobi", Procs: -1}, "procs"},
		{"huge procs", Spec{App: "jacobi", Procs: MaxProcs + 1}, "procs"},
		{"negative trials", Spec{App: "jacobi", Trials: -1}, "trials"},
		{"huge trials", Spec{App: "jacobi", Trials: MaxTrials + 1}, "trials"},
		{"bad scale", Spec{App: "jacobi", Scale: "medium"}, "scale"},
		{"bad barrier", Spec{App: "jacobi", Barrier: "butterfly"}, "barrier"},
		{"negative radix", Spec{App: "jacobi", Barrier: "tree", BarrierRadix: -1}, "barrier_radix"},
		{"radix 1", Spec{App: "jacobi", Barrier: "tree", BarrierRadix: 1}, "barrier_radix"},
	} {
		_, err := Resolve(tc.spec)
		if err == nil {
			t.Errorf("%s: Resolve accepted %+v", tc.name, tc.spec)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

func TestEngineConfigRoundTrip(t *testing.T) {
	r := mustResolve(t, Spec{App: "tsp", Protocol: "adaptive", Network: "bus", Trials: 3, Collect: true})
	cfg := r.EngineConfig()
	if cfg.Procs != harness.Procs || cfg.Protocol != "adaptive" || cfg.Network != "bus" ||
		cfg.Placement != tmk.DefaultPlacement || !cfg.Collect {
		t.Fatalf("EngineConfig = %+v", cfg)
	}
	if r.Trials() != 3 {
		t.Fatalf("Trials = %d", r.Trials())
	}
	// The engine must accept every resolved config verbatim.
	if _, err := tmk.NewSystem(cfg); err != nil {
		t.Fatalf("engine rejected resolved config: %v", err)
	}
}

func TestRegistryMatchesLookups(t *testing.T) {
	reg := Registry()
	if len(reg.Workloads) == 0 || len(reg.Protocols) == 0 || len(reg.Networks) == 0 || len(reg.Placements) == 0 {
		t.Fatalf("registry dump incomplete: %+v", reg)
	}
	// Every advertised workload must resolve.
	for _, wl := range reg.Workloads {
		for _, ds := range wl.Datasets {
			if _, err := Resolve(Spec{App: wl.App, Dataset: ds.Dataset}); err != nil {
				t.Errorf("advertised workload %s/%s does not resolve: %v", wl.App, ds.Dataset, err)
			}
		}
	}
	if reg.DefaultProtocol != tmk.DefaultProtocol || reg.DefaultPlacement != tmk.DefaultPlacement {
		t.Fatalf("defaults drifted: %+v", reg)
	}
	if !strings.Contains(strings.Join(reg.Protocols, ","), "adaptive") {
		t.Fatalf("protocols missing adaptive: %v", reg.Protocols)
	}
}
