package ilink

import "repro/internal/apps"

// The paper dataset (input-size independent, Figure 1) and a
// small/medium/large sweep.
func init() {
	apps.Register("Ilink", false, New, []apps.Dataset[Config]{
		{Name: "8x8192", Paper: "CLP 2x4x4x4", Config: Config{Genarrays: 8, Len: 8192, Iters: 3}},
		{Name: "small", Config: Config{Genarrays: 4, Len: 4096, Iters: 2}},
		{Name: "medium", Config: Config{Genarrays: 8, Len: 8192, Iters: 3}},
		{Name: "large", Config: Config{Genarrays: 16, Len: 8192, Iters: 3}},
	})
}
