//go:build !race

package surface

const raceEnabled = false
