package water

import "repro/internal/apps"

// The paper dataset (input-size independent, Figure 1) and a
// small/medium/large sweep.
//
// Water is schedule-sensitive: whether a re-acquire of a per-molecule
// force lock hits the lock cache depends on the grant order, which
// follows the requests' simulated times, and those depend on the
// network's prices. A capture taken on one network does not describe
// another, so Water is not replay-derivable.
func init() {
	apps.Register("Water", true, New, []apps.Dataset[Config]{
		{Name: "96", Paper: "343 molecules", Config: Config{Molecules: 96, Steps: 2}},
		{Name: "small", Config: Config{Molecules: 48, Steps: 2}},
		{Name: "medium", Config: Config{Molecules: 96, Steps: 2}},
		{Name: "large", Config: Config{Molecules: 192, Steps: 2}},
	})
}
