// Package lib exports one name the root calls, one nothing calls and one
// only another package's tests call.
package lib

func Used() int { return 1 }

func Unused() int { return 2 }

func TestOnly() int { return 3 }

// T is used through Stepper only.
type T struct{}

func (T) Step() {}
