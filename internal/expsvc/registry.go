package expsvc

import (
	"repro/internal/apps"
	"repro/internal/netmodel"
	"repro/internal/tmk"
)

// RegistryJSON is the machine-readable dump of every experiment axis:
// the workloads and the protocol, network, placement, barrier, and
// scale registries with their defaults. It is the single source both discovery surfaces
// share — the service's GET /v1/registry handler and dsmrun -list -json
// — so the two can never drift.
type RegistryJSON struct {
	Workloads        []RegistryWorkload `json:"workloads"`
	Protocols        []string           `json:"protocols"`
	DefaultProtocol  string             `json:"default_protocol"`
	Networks         []string           `json:"networks"`
	DefaultNetwork   string             `json:"default_network"`
	Placements       []string           `json:"placements"`
	DefaultPlacement string             `json:"default_placement"`
	Barriers         []string           `json:"barriers"`
	DefaultBarrier   string             `json:"default_barrier"`
	Scales           []string           `json:"scales"`
	DefaultScale     string             `json:"default_scale"`
}

// RegistryWorkload is one application with its registered datasets, in
// registration order (the first dataset is the app's default).
type RegistryWorkload struct {
	App      string            `json:"app"`
	Datasets []RegistryDataset `json:"datasets"`
}

// RegistryDataset is one registered input size.
type RegistryDataset struct {
	Dataset string `json:"dataset"`
	// Paper is the paper dataset this one stands in for; empty for
	// sweep sizes with no paper counterpart.
	Paper string `json:"paper,omitempty"`
}

// Registry builds the dump from the live registries.
func Registry() RegistryJSON {
	out := RegistryJSON{
		Protocols:        tmk.ProtocolNames(),
		DefaultProtocol:  tmk.DefaultProtocol,
		Networks:         netmodel.Names(),
		DefaultNetwork:   netmodel.Default,
		Placements:       tmk.PlacementNames(),
		DefaultPlacement: tmk.DefaultPlacement,
		Barriers:         tmk.BarrierNames(),
		DefaultBarrier:   tmk.DefaultBarrier,
		Scales:           tmk.ScaleNames(),
		DefaultScale:     tmk.DefaultScale,
	}
	for _, e := range apps.Entries() {
		n := len(out.Workloads)
		if n == 0 || out.Workloads[n-1].App != e.App {
			out.Workloads = append(out.Workloads, RegistryWorkload{App: e.App})
			n++
		}
		out.Workloads[n-1].Datasets = append(out.Workloads[n-1].Datasets,
			RegistryDataset{Dataset: e.Dataset, Paper: e.Paper})
	}
	return out
}
