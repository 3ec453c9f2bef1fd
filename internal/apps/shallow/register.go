package shallow

import "repro/internal/apps"

// The paper datasets (Figure 2's column-size ladder) and a
// small/medium/large sweep. Cols stays 16 so every processor count
// dividing 16 is valid.
func init() {
	apps.Register("Shallow", false, New, []apps.Dataset[Config]{
		{Name: "512x16 (col=1pg)", Paper: "1Kx0.5K", Config: Config{Rows: 512, Cols: 16, Iters: 3}},
		{Name: "1024x16 (col=2pg)", Paper: "2Kx0.5K", Config: Config{Rows: 1024, Cols: 16, Iters: 3}},
		{Name: "2048x16 (col=4pg)", Paper: "4Kx0.5K", Config: Config{Rows: 2048, Cols: 16, Iters: 3}},
		{Name: "small", Config: Config{Rows: 256, Cols: 16, Iters: 2}},
		{Name: "medium", Config: Config{Rows: 512, Cols: 16, Iters: 3}},
		{Name: "large", Config: Config{Rows: 2048, Cols: 16, Iters: 3}},
	})
}
