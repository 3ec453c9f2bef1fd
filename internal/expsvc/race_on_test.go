//go:build race

package expsvc

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a random share of what is put back, so the standard library's
// pooled buffers (json's encoder state among them) are allocated again
// and an allocation count no longer measures this package.
const raceEnabled = true
