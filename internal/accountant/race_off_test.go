//go:build !race

package accountant

const raceEnabled = false
