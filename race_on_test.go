//go:build race

package dsm

// raceEnabled reports that the race detector is on: it changes how long
// every goroutine runs between synchronizations, which the lock
// applications' unpinned tests cannot take.
const raceEnabled = true
