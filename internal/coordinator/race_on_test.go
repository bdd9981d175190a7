//go:build race

package coordinator

// raceEnabled skips the counted allocation gate: the race detector
// allocates shadow state of its own.
const raceEnabled = true
