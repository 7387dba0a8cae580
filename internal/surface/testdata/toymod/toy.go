// Package toy is a module small enough to list every finding the census
// and the layout rules must make in it.
package toy

import (
	"toy/internal/lib"
	"toy/internal/oracle"
	"toy/internal/sim"
)

// Stepper is an interface of the module: a method of this name is used.
type Stepper interface{ Step() }

// Main calls what the internal packages export for it.
func Main() int64 {
	var s Stepper = lib.T{}
	s.Step()
	return int64(lib.Used()) + sim.Stamp() + oracle.Step()
}
