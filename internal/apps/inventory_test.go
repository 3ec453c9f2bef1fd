package apps_test

import (
	"testing"

	"repro/internal/apps"
)

// inventory is the whole registry in Entries order: every app × dataset
// with its paper counterpart, its schedule sensitivity, and the segment
// size and lock count of its 8-processor workload. A change to any
// app's registration or configuration shows here as one named row.
var inventory = []struct {
	app, dataset, paper string
	sensitive           bool
	segmentBytes, locks int
}{
	{"3D-FFT", "8x8x128 (chunk=1pg)", "64x64x32", false, 270336, 0},
	{"3D-FFT", "8x8x256 (chunk=2pg)", "64x64x64", false, 532480, 0},
	{"3D-FFT", "8x8x512 (chunk=4pg)", "128x128x128", false, 1056768, 0},
	{"3D-FFT", "small", "", false, 139264, 0},
	{"3D-FFT", "medium", "", false, 532480, 0},
	{"3D-FFT", "large", "", false, 1056768, 0},
	{"Barnes", "512", "16K bodies", false, 303104, 0},
	{"Barnes", "small", "", false, 81920, 0},
	{"Barnes", "medium", "", false, 303104, 0},
	{"Barnes", "large", "", false, 598016, 0},
	{"Ilink", "8x8192", "CLP 2x4x4x4", false, 532480, 0},
	{"Ilink", "small", "", false, 139264, 0},
	{"Ilink", "medium", "", false, 532480, 0},
	{"Ilink", "large", "", false, 1056768, 0},
	{"Jacobi", "128x512 (row=1pg)", "1Kx1K", false, 1052672, 0},
	{"Jacobi", "64x1024 (row=2pg)", "2Kx2K", false, 1052672, 0},
	{"Jacobi", "small", "", false, 266240, 0},
	{"Jacobi", "medium", "", false, 1052672, 0},
	{"Jacobi", "large", "", false, 4198400, 0},
	{"MGS", "512x32 (vec=1pg)", "1Kx1K", false, 135168, 0},
	{"MGS", "1024x24 (vec=2pg)", "2Kx2K", false, 200704, 0},
	{"MGS", "2048x16 (vec=4pg)", "1Kx4K", false, 266240, 0},
	{"MGS", "small", "", false, 36864, 0},
	{"MGS", "medium", "", false, 135168, 0},
	{"MGS", "large", "", false, 266240, 0},
	{"Shallow", "512x16 (col=1pg)", "1Kx0.5K", false, 462848, 0},
	{"Shallow", "1024x16 (col=2pg)", "2Kx0.5K", false, 921600, 0},
	{"Shallow", "2048x16 (col=4pg)", "4Kx0.5K", false, 1839104, 0},
	{"Shallow", "small", "", false, 462848, 0},
	{"Shallow", "medium", "", false, 462848, 0},
	{"Shallow", "large", "", false, 1839104, 0},
	{"Storm", "small", "", false, 65536, 0},
	{"Storm", "medium", "", false, 131072, 0},
	{"Storm", "large", "", false, 131072, 0},
	{"TSP", "12-city", "19-city", true, 1241088, 2},
	{"TSP", "small", "", true, 94208, 2},
	{"TSP", "medium", "", true, 1241088, 2},
	{"TSP", "large", "", true, 1830912, 2},
	{"Water", "96", "343 molecules", true, 16384, 96},
	{"Water", "small", "", true, 12288, 48},
	{"Water", "medium", "", true, 16384, 96},
	{"Water", "large", "", true, 28672, 192},
}

func TestRegistryInventoryTable(t *testing.T) {
	es := apps.Entries()
	if len(es) != len(inventory) {
		t.Errorf("registry has %d entries, want %d", len(es), len(inventory))
	}
	for i := 0; i < min(len(es), len(inventory)); i++ {
		e, want := es[i], inventory[i]
		w := e.Make(8)
		if e.App != want.app || e.Dataset != want.dataset || e.Paper != want.paper ||
			e.ScheduleSensitive != want.sensitive ||
			w.SegmentBytes() != want.segmentBytes || w.Locks() != want.locks {
			t.Errorf("entry %d = {%q, %q, %q, %v, %d, %d}, want %+v", i,
				e.App, e.Dataset, e.Paper, e.ScheduleSensitive,
				w.SegmentBytes(), w.Locks(), want)
		}
	}
}
