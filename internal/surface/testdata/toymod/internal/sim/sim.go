// Package sim reads the wall clock where a simulation package must not.
package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
