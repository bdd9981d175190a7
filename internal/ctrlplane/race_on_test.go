//go:build race

package ctrlplane

// raceEnabled skips the counted allocation gates: the race detector
// allocates shadow state of its own.
const raceEnabled = true
