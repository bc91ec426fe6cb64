//go:build !race

package frogwild

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
