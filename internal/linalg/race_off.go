//go:build !race

package linalg

// raceEnabled reports whether the race detector is compiled in; see
// race_on.go.
const raceEnabled = false
