package tsp

import "repro/internal/apps"

// The paper dataset (input-size independent, Figure 1) and a
// small/medium/large sweep. City counts stay <= 14 (the branch-bound
// solver's table limit).
//
// TSP is schedule-sensitive: the branch-and-bound frontier prunes
// against a lock-guarded global bound, so which subtrees are explored,
// and with them the wire traffic, follow the lock grant order. Grants
// follow the requests' simulated times, and those depend on the
// network's prices, so a capture taken on one network describes that
// network's run and TSP is not replay-derivable.
func init() {
	apps.Register("TSP", true, New, []apps.Dataset[Config]{
		{Name: "12-city", Paper: "19-city", Config: Config{Cities: 12, ForkDepth: 4}},
		{Name: "small", Config: Config{Cities: 10, ForkDepth: 3}},
		{Name: "medium", Config: Config{Cities: 12, ForkDepth: 4}},
		{Name: "large", Config: Config{Cities: 13, ForkDepth: 4}},
	})
}
