package mgs

import "repro/internal/apps"

// The paper datasets (Figure 2's vector-size ladder) and a
// small/medium/large sweep. Vectors stays >= 16 so every processor
// count up to 16 is valid.
func init() {
	apps.Register("MGS", false, New, []apps.Dataset[Config]{
		{Name: "512x32 (vec=1pg)", Paper: "1Kx1K", Config: Config{Dim: 512, Vectors: 32}},
		{Name: "1024x24 (vec=2pg)", Paper: "2Kx2K", Config: Config{Dim: 1024, Vectors: 24}},
		{Name: "2048x16 (vec=4pg)", Paper: "1Kx4K", Config: Config{Dim: 2048, Vectors: 16}},
		{Name: "small", Config: Config{Dim: 256, Vectors: 16}},
		{Name: "medium", Config: Config{Dim: 512, Vectors: 32}},
		{Name: "large", Config: Config{Dim: 2048, Vectors: 16}},
	})
}
