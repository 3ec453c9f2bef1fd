package barnes

import "repro/internal/apps"

// The paper dataset (input-size independent, Figure 1) and a
// small/medium/large sweep.
func init() {
	apps.Register("Barnes", false, New, []apps.Dataset[Config]{
		{Name: "512", Paper: "16K bodies", Config: Config{Bodies: 512, Steps: 2}},
		{Name: "small", Config: Config{Bodies: 128, Steps: 2}},
		{Name: "medium", Config: Config{Bodies: 512, Steps: 2}},
		{Name: "large", Config: Config{Bodies: 1024, Steps: 2}},
	})
}
