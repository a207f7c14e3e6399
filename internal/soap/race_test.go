//go:build race

package soap

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
