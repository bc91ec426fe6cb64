//go:build !race

package glpr

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
