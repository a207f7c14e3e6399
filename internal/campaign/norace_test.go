//go:build !race

package campaign

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
