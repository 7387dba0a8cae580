package sim

// Activity-balanced partitioning for the engine's workers. Each worker owns
// one contiguous span of groups; splitting by group count alone skews the
// loads under adversarial patterns, where the active routers cluster (the
// bottleneck group and its Valiant intermediaries), leaving some workers
// stepping almost nothing while one does most of the window. balancedSpans
// instead cuts the group line so every span carries a near-equal share of
// observed router-steps.
//
// The partition cannot perturb results: a group's state is only ever
// touched by its owner, the events on one link reach their ring in the
// sender's order whether they are pushed at once or at the barrier, and a
// span only changes between windows. Bit-identity across Workers 1/2/N is
// preserved by construction (and enforced by the cross-engine tests).

// span is one worker's contiguous group range [lo, hi).
type span struct{ lo, hi int }

// rebalanceInterval is how many cycles of activity are observed between
// re-partitions: short enough to chase a bottleneck group that wakes
// mid-run.
const rebalanceInterval = 256

// balancedSpans cuts [0,len(weight)) into `workers` contiguous spans whose
// cumulative weight+1 shares are as even as a left-to-right sweep allows
// (+1 so fully idle stretches still spread over workers instead of
// collapsing into one span). The result is appended to buf (reset first)
// so the engine can reuse one backing array. Always returns exactly
// `workers` spans covering [0,n); trailing spans may be empty.
func balancedSpans(weight []int64, workers int, buf []span) []span {
	n := len(weight)
	total := int64(n)
	for _, w := range weight {
		total += w
	}
	buf = buf[:0]
	lo := 0
	var acc int64
	for r := 0; r < n; r++ {
		acc += weight[r] + 1
		// Close the current span once its cumulative share reaches its
		// proportional target share of the total.
		if len(buf) < workers-1 && acc*int64(workers) >= total*int64(len(buf)+1) {
			buf = append(buf, span{lo: lo, hi: r + 1})
			lo = r + 1
		}
	}
	buf = append(buf, span{lo: lo, hi: n})
	for len(buf) < workers {
		buf = append(buf, span{lo: n, hi: n})
	}
	return buf
}
