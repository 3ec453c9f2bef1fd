package jacobi

import "repro/internal/apps"

// The paper datasets (Figure 2's granularity ladder) and a
// small/medium/large sweep register at init so the workload is
// runnable by name from the registry.
func init() {
	apps.Register("Jacobi", false, New, []apps.Dataset[Config]{
		{Name: "128x512 (row=1pg)", Paper: "1Kx1K", Config: Config{Rows: 128, Cols: 512, Iters: 4}},
		{Name: "64x1024 (row=2pg)", Paper: "2Kx2K", Config: Config{Rows: 64, Cols: 1024, Iters: 4}},
		{Name: "small", Config: Config{Rows: 64, Cols: 256, Iters: 2}},
		{Name: "medium", Config: Config{Rows: 128, Cols: 512, Iters: 4}},
		{Name: "large", Config: Config{Rows: 256, Cols: 1024, Iters: 4}},
	})
}
