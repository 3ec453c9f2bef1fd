package fft3d

import "repro/internal/apps"

// The paper datasets (the §5.5 4 KB/8 KB/16 KB chunk ladder) and a
// small/medium/large sweep. N1 and N2 stay 8 so every processor count
// dividing 8 is valid.
func init() {
	apps.Register("3D-FFT", false, New, []apps.Dataset[Config]{
		{Name: "8x8x128 (chunk=1pg)", Paper: "64x64x32", Config: Config{N1: 8, N2: 8, N3: 128, Iters: 2}},
		{Name: "8x8x256 (chunk=2pg)", Paper: "64x64x64", Config: Config{N1: 8, N2: 8, N3: 256, Iters: 2}},
		{Name: "8x8x512 (chunk=4pg)", Paper: "128x128x128", Config: Config{N1: 8, N2: 8, N3: 512, Iters: 2}},
		{Name: "small", Config: Config{N1: 8, N2: 8, N3: 64, Iters: 2}},
		{Name: "medium", Config: Config{N1: 8, N2: 8, N3: 256, Iters: 2}},
		{Name: "large", Config: Config{N1: 8, N2: 8, N3: 512, Iters: 3}},
	})
}
