//go:build race

package scheduler

// raceEnabled reports whether the race detector is instrumenting this
// build. Its bookkeeping allocates, so the allocation gate skips.
const raceEnabled = true
