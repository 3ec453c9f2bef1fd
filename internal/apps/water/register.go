package water

import "repro/internal/apps"

// The paper dataset (input-size independent, Figure 1) and a
// small/medium/large sweep.
func init() {
	reg := func(dataset, paper string, cfg Config) {
		apps.Register(apps.Entry{
			App: "Water", Dataset: dataset, Paper: paper,
			// Per-molecule force locks: whether a re-acquire hits the
			// lock cache depends on the grant order, which follows the
			// requests' simulated times, and those depend on the
			// network's prices. A capture taken on one network does not
			// describe another, so Water is not replay-derivable.
			ScheduleSensitive: true,
			Make: func(procs int) apps.Workload {
				c := cfg
				c.Procs = procs
				return New(c)
			},
		})
	}
	reg("96", "343 molecules", Config{Molecules: 96, Steps: 2})
	reg("small", "", Config{Molecules: 48, Steps: 2})
	reg("medium", "", Config{Molecules: 96, Steps: 2})
	reg("large", "", Config{Molecules: 192, Steps: 2})
}
