package storm

import "repro/internal/apps"

// The scaling-sweep datasets: per-processor work is constant across
// processor counts (unlike the paper apps, whose bands thin out), so a
// dataset means the same thing at 8 and at 1024 processors.
func init() {
	apps.Register("Storm", false, New, []apps.Dataset[Config]{
		{Name: "small", Config: Config{PagesPerProc: 2, Episodes: 8}},
		{Name: "medium", Config: Config{PagesPerProc: 4, Episodes: 32}},
		{Name: "large", Config: Config{PagesPerProc: 4, Episodes: 64}},
	})
}
