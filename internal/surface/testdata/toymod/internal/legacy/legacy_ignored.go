//go:build ignore

// Build constraints exclude this file; the layout rules read it all the
// same.

package legacy

func again() int { return writeBack() }
