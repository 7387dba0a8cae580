//go:build ignore

package sim

func stampAgain() int64 { return Stamp() }
