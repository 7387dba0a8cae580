//go:build race

package sweep

// raceEnabled reports whether the race detector is instrumenting this
// build. Its instrumentation allocates, so the allocation gates skip.
const raceEnabled = true
