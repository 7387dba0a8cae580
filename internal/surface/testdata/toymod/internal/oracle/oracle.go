// Package oracle is the toy's frozen model: only tests may import it.
package oracle

func Step() int64 { return 0 }
