//go:build race

package wsi

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
