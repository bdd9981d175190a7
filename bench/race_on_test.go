//go:build race

package main

// raceEnabled relaxes wall-clock assertions: the race detector slows
// the smoke run several-fold.
const raceEnabled = true
