//go:build !race

package wsinterop

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
