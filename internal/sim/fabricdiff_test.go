package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// fabricDiff is the one comparison of two networks the bit-identity tests
// make. It compares, in order, every router's state vector (Core.StateVector:
// credits, occupancies, pointers, queued packets), the packets in flight —
// the vectors leave out link contents — and every router's and job's
// accumulators, and describes the first difference, or returns "". A state
// difference names the router, its group and the word, by the name got's
// core gives it (Core.StateWord), so got is core-built and want may be the
// oracle: "router 8 (group 2) in[6].qTotal: 0 != 1".
func fabricDiff(got, want *Network) string {
	for r := range want.topo.NumRouters() {
		g, w := got.fab.StateVector(r, nil), want.fab.StateVector(r, nil)
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		if i == len(g) && i == len(w) {
			continue
		}
		word := func(v []int64) string {
			if i < len(v) {
				return strconv.FormatInt(v[i], 10)
			}
			return "end"
		}
		return fmt.Sprintf("router %d (group %d) %s: %s != %s", r, want.topo.RouterGroup(r), got.core.StateWord(r, i), word(g), word(w))
	}
	if g, w := got.InFlight(), want.InFlight(); g != w {
		return fmt.Sprintf("%d packets in flight, want %d", g, w)
	}
	return accumulatorsOf(got).diff(accumulatorsOf(want))
}

// firstDivergence locates where two runs started to differ, once their
// end-of-run fabricDiff has found diff after total cycles. run(k) repeats
// the test's own two runs for k cycles, warm-up included, and the result is
// the first k whose runs differ (the state after cycle k, counting from 1),
// with a report naming it. The search is over the measured cycles
// (warmup, total] — Validate wants MeasureCycles > 0 — and keeps "equal at
// lo, different at hi" until the two are adjacent, which needs no
// monotonicity: both sides run the same configuration at every probe. It
// costs ⌈log₂(total−warmup)⌉ runs, and only ever runs after a failure.
func firstDivergence(warmup, total int64, diff string, run func(k int64) (got, want *Network)) (int64, string) {
	lo, hi, runs := warmup, total, 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		runs++
		if d := fabricDiff(run(mid)); d != "" {
			hi, diff = mid, d
		} else {
			lo = mid
		}
	}
	by := ""
	if hi == warmup+1 {
		by = " or before" // the warm-up is never compared on its own
	}
	return hi, fmt.Sprintf("first differs after cycle %d%s (%d reruns): %s", hi, by, runs, diff)
}

// Two core runs that differ by one churn event — node 17 falls silent at
// cycle 137 on one side only — first differ where the node's next packet
// would have entered its source queue. The bisection finds the cycle a
// linear scan finds, within ⌈log₂(T−warmup)⌉+2 runs of each side counting
// the end-of-run comparison, and the report names the node's router, group
// and injection port.
func TestFirstDivergenceNamesCycleAndWord(t *testing.T) {
	const warmup, total, node, silenceAt = 20, 400, 17, 137
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism, cfg.Pattern, cfg.Load = "Src-CRG", "ADVc", 0.45
	cfg.WarmupCycles = warmup
	runs := 0
	run := func(k int64) (silenced, plain *Network) {
		runs++
		var nets [2]*Network
		for i, script := range [][]churnEvent{{{cycle: silenceAt, node: node}}, nil} {
			c := cfg
			c.MeasureCycles = k - warmup
			net, err := core.build(&c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.drive(net, &c, &churnController{events: script}); err != nil {
				t.Fatal(err)
			}
			nets[i] = net
		}
		return nets[0], nets[1]
	}
	d := fabricDiff(run(total))
	if d == "" {
		t.Fatal("silencing a node left the run unchanged")
	}
	cycle, report := firstDivergence(warmup, total, d, run)
	if bound := int(math.Ceil(math.Log2(total-warmup))) + 2; runs > bound {
		t.Errorf("%d runs, want at most %d", runs, bound)
	}
	linear := int64(-1)
	for k := int64(warmup + 1); k <= total && linear < 0; k++ {
		if fabricDiff(run(k)) != "" {
			linear = k
		}
	}
	if cycle != linear {
		t.Fatalf("bisection found cycle %d, a linear scan %d (%s)", cycle, linear, report)
	}
	topo := topology.New(cfg.Topology)
	r := topo.NodeRouter(node)
	if want := fmt.Sprintf("router %d (group %d) in[%d].", r, topo.RouterGroup(r), topo.NodePort(node)); !strings.Contains(report, want) {
		t.Fatalf("report %q names no word of %s", report, want)
	}
	t.Log(report)
}

// Every word of a router's state vector has a name of its own. Mid-flight —
// ADVc at 0.8 for 200 cycles, so queues hold packets and credits are
// outstanding — every router of an h=1, 2 and 3 network under every
// mechanism names each word once, "end" past the vector, at least one
// queued packet's word and one credit counter. Naming every word is
// quadratic in the vector's length, hence the parallel subtests, and h=3
// (seven-eighths of the cost, 20 s under -race) runs outside -short only.
func TestStateWordNamesEveryWord(t *testing.T) {
	maxH := 3
	if testing.Short() {
		maxH = 2
	}
	for h := 1; h <= maxH; h++ {
		for _, mech := range routing.Names() {
			t.Run(fmt.Sprintf("h=%d/%s", h, mech), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Topology = topology.Balanced(h)
				cfg.Mechanism, cfg.Pattern, cfg.Load = mech, "ADVc", 0.8
				cfg.WarmupCycles, cfg.MeasureCycles = 0, 200
				net, err := NewNetwork(&cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := RunNetwork(net, &cfg); err != nil {
					t.Fatal(err)
				}
				for r := range net.topo.NumRouters() {
					n := len(net.core.StateVector(r, nil))
					seen := make(map[string]bool, n)
					pkt, credits := false, false
					for i := range n {
						name := net.core.StateWord(r, i)
						if name == "" || name == "end" || seen[name] {
							t.Fatalf("router %d: word %d of %d is named %q twice or not at all", r, i, n, name)
						}
						seen[name] = true
						pkt = pkt || strings.Contains(name, ".pkt[")
						credits = credits || strings.HasSuffix(name, ".credits")
					}
					if end := net.core.StateWord(r, n); end != "end" {
						t.Fatalf("router %d: the word past the vector is named %q, want end", r, end)
					}
					if !pkt || !credits {
						t.Fatalf("router %d: no queued packet's word (%v) or no credit counter (%v) among %d words", r, pkt, credits, n)
					}
				}
			})
		}
	}
}
