// Package analytic provides closed-form performance bounds for canonical
// Dragonfly networks under the paper's traffic patterns. The bounds serve
// two purposes: they are the reference lines the paper quotes (Section III:
// MIN throughput is limited to h/(a·p) under ADVc and 1/(a·p) under ADV),
// and the test suite uses them to cross-validate the simulator against
// theory.
//
// All throughputs are in phits/(node·cycle) with unit-bandwidth links.
package analytic

import (
	"math"

	"dragonfly/internal/topology"
)

// MinThroughputADV returns the MIN-routing throughput ceiling under the
// ADV+i pattern: all a·p nodes of a group share the single global link
// towards the destination group.
func MinThroughputADV(p topology.Params) float64 {
	return 1 / float64(p.A*p.P)
}

// MinThroughputADVc returns the MIN-routing ceiling under ADVc: the a·p
// nodes of a group share the h global links of the bottleneck router.
func MinThroughputADVc(p topology.Params) float64 {
	return float64(p.H) / float64(p.A*p.P)
}

// MinThroughputUN returns the MIN-routing ceiling under uniform traffic.
// Minimal inter-group traffic crosses exactly one global link; a fraction
// (G-1)·a·p/(G·a·p - 1) ≈ 1 of the traffic is inter-group, and each group
// has a·h global links for a·p injectors, so the global-link bound is
// h/p · G/(G-1) ≈ h/p. The injection/ejection bound caps the result at 1.
func MinThroughputUN(p topology.Params) float64 {
	g := float64(p.Groups())
	interGroup := (g - 1) / g // fraction of traffic leaving the group
	globalBound := float64(p.H) / (float64(p.P) * interGroup)
	return math.Min(1, globalBound)
}

// ValiantThroughputUN returns the Valiant (nonminimal oblivious) ceiling
// under uniform traffic: every packet crosses up to two global links, so
// the global-link bound halves.
func ValiantThroughputUN(p topology.Params) float64 {
	return math.Min(1, MinThroughputUN(p)/2)
}

// ValiantThroughputADV returns the Valiant ceiling under any
// single-destination-group adversarial pattern: the group's a·h global
// links carry each packet twice (out to the intermediate group and into
// the destination group), giving h/(2p) per node.
func ValiantThroughputADV(p topology.Params) float64 {
	return math.Min(1, float64(p.H)/(2*float64(p.P)))
}

// MeanZeroLoadLatency returns the exact expected zero-load latency, in
// cycles, of minimal paths under uniform traffic over distinct nodes, with
// per-link propagation latencies priced by the latency model. It
// enumerates router pairs (minimal paths and link latencies depend only on
// the routers, and every router hosts p nodes), so it is O(routers²) —
// exact where pricing MeanMinimalHops' hop counts can only handle uniform
// class latencies. Every router on the path adds pipeline + crossbar +
// serialisation, every link its propagation latency. The reference line
// for heterogeneous-latency simulations.
func MeanZeroLoadLatency(t *topology.Topology, m topology.LatencyModel, pipeline, crossbar, serial int) float64 {
	perRouter := float64(pipeline + crossbar + serial)
	pp := float64(t.Params().P)
	var sum, pairs float64
	for rs := 0; rs < t.NumRouters(); rs++ {
		for rd := 0; rd < t.NumRouters(); rd++ {
			var w float64
			var hops int
			if rs == rd {
				w = pp * (pp - 1) // distinct nodes on one router: 0 hops
			} else {
				w = pp * pp
				pl := t.MinimalPathLength(rs*t.Params().P, rd*t.Params().P)
				hops = pl.Hops()
				sum += w * float64(topology.MinimalPathLinkLatency(t, m, rs, rd))
			}
			sum += w * float64(hops+1) * perRouter
			pairs += w
		}
	}
	return sum / pairs
}

// MeanMinimalHops returns the expected (local, global) hop counts of
// minimal paths under uniform traffic over distinct nodes.
func MeanMinimalHops(p topology.Params) (local, global float64) {
	t := topology.New(p)
	g := float64(t.NumGroups())
	a := float64(p.A)
	n := float64(t.NumNodes())

	// Probability the destination is in another group.
	pOther := (g - 1) * a * float64(p.P) / (n - 1)
	global = pOther

	// Within the source group: P(different router) = (a-1)p/(ap-1).
	pSameGroupOtherRouter := (a - 1) * float64(p.P) / (n - 1)
	local = pSameGroupOtherRouter

	// Inter-group paths: one local hop at the source side unless the
	// source router owns the link (1/a), one at the destination side
	// unless the destination router terminates it (1/a).
	local += pOther * 2 * (1 - 1/a)
	return local, global
}

// BottleneckOversubscription returns how many times the offered ADVc load
// oversubscribes each global link of the bottleneck router (values above 1
// mean the minimal path alone cannot carry the load and the bottleneck
// congests, the precondition for the paper's unfairness).
func BottleneckOversubscription(p topology.Params, load float64) float64 {
	return load * float64(p.A*p.P) / float64(p.H)
}

// LocalLinkOversubscription returns how many times the offered ADVc load
// oversubscribes each local link feeding the bottleneck router. Above 1,
// queues back up inside the group and the bottleneck router's allocator is
// permanently busy with transit — the regime in which transit-over-
// injection priority starves its injection ports.
func LocalLinkOversubscription(p topology.Params, load float64) float64 {
	return load * float64(p.P)
}
