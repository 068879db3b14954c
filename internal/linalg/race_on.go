//go:build race

package linalg

// raceEnabled reports whether the race detector is compiled in. The
// detector cannot see memory accesses made by assembly, so race builds
// sweep on the Go kernels (see useAVX512).
const raceEnabled = true
