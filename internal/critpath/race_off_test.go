//go:build !race

package critpath

// raceEnabled reports whether the race detector is active; heap-accounting
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = false
