// This package has no package comment, is over the toy's line cap and
// holds one site of each kind the toy's layout rules forbid or count.

package legacy

func writeBack() int { return 1 }

// applier makes Apply a used method name for the census.
type applier interface{ Apply(rc int) }

type a struct{}
type b struct{}

func (a) Apply(rc int) {}
func (b) Apply(rc int) {}

type core struct{ cand []int }

func grow(c core) []int32 {
	nodeJob := make([]int32, len(c.cand)+writeBack())
	return nodeJob
}

type opts struct{ prio int }

var o = opts{prio: 1}
