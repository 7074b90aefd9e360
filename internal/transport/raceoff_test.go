//go:build !race

package transport

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions only hold in uninstrumented builds.
const raceEnabled = false
