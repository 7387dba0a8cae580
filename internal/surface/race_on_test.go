//go:build race

package surface

// raceEnabled reports whether the race detector is instrumenting this
// build. The census and layout checks skip under it.
const raceEnabled = true
