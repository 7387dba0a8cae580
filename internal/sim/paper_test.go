package sim

import (
	"fmt"
	"math"
	"testing"

	"dragonfly/internal/analytic"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// The paper's qualitative results — the MIN ceilings of Section III, the
// shapes of Figures 2-6 and Tables II/III, the Section III allocation case
// — as one table of claims, checked on scaled-down networks where they
// show in seconds. EXPERIMENTS.md records the full-size numbers.
//
// A claim is one row of paperClaims: an id, its source in the paper, the
// runs it reads, a statistic over them and the bound that statistic must
// hold. Its subtest is TestPaperClaims/<id>. Every row reads one memoised
// run set, so a configuration simulates once however many rows read it,
// and a filtered -run simulates only what its rows read. To add a claim,
// add a row, reusing an existing configuration where one fits.

// runKey names one simulation: a configuration and, when apps > 0,
// uniform application traffic over groups 0..apps-1 (workload.AppSpec) in
// place of the configuration's pattern.
type runKey struct {
	cfg  Config
	apps int
}

func (k runKey) String() string {
	c := k.cfg
	return fmt.Sprintf("%s/%s@%g h=%d %v apps=%d", c.Mechanism, c.Pattern, c.Load, c.Topology.H, c.Router.Arbitration, k.apps)
}

// runSet memoises the claims' simulations: each key runs on its first read.
type runSet map[runKey]*Result

func (s runSet) get(t *testing.T, k runKey) reading {
	t.Helper()
	if res, ok := s[k]; ok {
		return reading{k, res}
	}
	var wl *workload.Workload
	if k.apps > 0 {
		var err error
		if wl, err = workload.Compile(topology.New(k.cfg.Topology), workload.AppSpec(k.cfg.Topology, 0, k.apps), k.cfg.Seed); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunWorkload(k.cfg, wl)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	s[k] = res
	return reading{k, res}
}

// reading is one simulation a claim reads.
type reading struct {
	runKey
	*Result
}

// statistic is what a claim measures over its runs (in read order), with
// the detail a failure prints beside the value.
type statistic struct {
	name string
	eval func(rs []reading) (v float64, detail string)
}

// bound is the condition a claim's statistic must hold. Every comparison
// is false for NaN, so an undefined statistic never holds.
type bound struct {
	desc  string
	holds func(v float64) bool
}

func atLeast(x float64) bound {
	return bound{fmt.Sprintf(">= %g", x), func(v float64) bool { return v >= x }}
}
func atMost(x float64) bound {
	return bound{fmt.Sprintf("<= %g", x), func(v float64) bool { return v <= x }}
}
func above(x float64) bound {
	return bound{fmt.Sprintf("> %g", x), func(v float64) bool { return v > x }}
}
func within(lo, hi float64) bound {
	return bound{fmt.Sprintf("in [%g, %g]", lo, hi), func(v float64) bool { return v >= lo && v <= hi }}
}

type claim struct {
	id, source string
	reads      []runKey
	stat       statistic
	must       bound
	long       bool // paper-scale: skipped under -short
}

// check returns why c fails on its runs, or "" when it holds. A run that
// delivered no packets in its measured window fails every claim that
// reads it: an empty run's statistics (a NaN share, Max/Min 1, CoV 0)
// say nothing about the paper.
func (c claim) check(rs []reading) string {
	for _, r := range rs {
		if r.Delivered() == 0 {
			return fmt.Sprintf("%s (%s): run %v delivered no packets in its measured window", c.id, c.source, r.runKey)
		}
	}
	v, detail := c.stat.eval(rs)
	if c.must.holds(v) {
		return ""
	}
	msg := fmt.Sprintf("%s (%s): %s = %.4g, want %s", c.id, c.source, c.stat.name, v, c.must.desc)
	if detail != "" {
		msg += "; " + detail
	}
	return msg
}

func TestPaperClaims(t *testing.T) {
	runs := runSet{}
	for _, c := range paperClaims() {
		t.Run(c.id, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("paper-scale claim: skipped with -short")
			}
			rs := make([]reading, len(c.reads))
			for i, k := range c.reads {
				rs[i] = runs.get(t, k)
			}
			if msg := c.check(rs); msg != "" {
				t.Error(msg)
			}
		})
	}
	t.Logf("%d runs, one per configuration", len(runs))
}

// An empty run proves nothing: every claim fails when each run it reads is
// its configuration at load 0, which delivers no packets.
func TestPaperClaimsFailOnEmptyRuns(t *testing.T) {
	runs := runSet{}
	for _, c := range paperClaims() {
		rs := make([]reading, len(c.reads))
		for i, k := range c.reads {
			k.cfg.Load = 0
			rs[i] = runs.get(t, k)
		}
		if c.check(rs) == "" {
			t.Errorf("%s holds on load-0 runs", c.id)
		}
	}
}

// h2 is a Section III configuration on the default h=2 network.
func h2(mech, pat string, load float64) runKey {
	cfg := DefaultConfig()
	cfg.Mechanism, cfg.Pattern, cfg.Load = mech, pat, load
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 4000
	return runKey{cfg: cfg}
}

// saturating drives mech under pat at twice an analytic ceiling (at most
// 1), well past saturation.
func saturating(mech, pat string, ceil func(topology.Params) float64) runKey {
	return h2(mech, pat, math.Min(1, 2*ceil(DefaultConfig().Topology)))
}

// unLow is the h=2 uniform point of the Figure 2a latency order.
func unLow(mech string) runKey {
	k := h2(mech, "UN", 0.2)
	k.cfg.WarmupCycles, k.cfg.MeasureCycles = 1500, 3000
	return k
}

// h3 is a balanced h=3 configuration of the scaled fairness study.
func h3(mech, pat string, load float64, arb router.Arbitration, warmup, measure int64) runKey {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism, cfg.Pattern, cfg.Load = mech, pat, load
	cfg.WarmupCycles, cfg.MeasureCycles = warmup, measure
	cfg.Router.Arbitration = arb
	cfg.Workers = 4
	return runKey{cfg: cfg}
}

// fair is the scaled Figure 4/6 configuration: ADVc at the paper's 0.4
// operating point, where the per-local-link demand toward the bottleneck
// router exceeds the link bandwidth (load*p > 1), the regime that
// produces the unfairness.
func fair(mech string, arb router.Arbitration) runKey {
	return h3(mech, "ADVc", 0.4, arb, 2500, 5000)
}

// metric is one value of a claim's single run.
func metric(name string, f func(*Result) float64) statistic {
	return statistic{name, func(rs []reading) (float64, string) { return f(rs[0].Result), "" }}
}

// ofCeiling is a run's throughput as a fraction of an analytic ceiling.
func ofCeiling(name string, ceil func(topology.Params) float64) statistic {
	return statistic{"throughput / analytic." + name, func(rs []reading) (float64, string) {
		thr, c := rs[0].Throughput(), ceil(rs[0].cfg.Topology)
		return thr / c, fmt.Sprintf("throughput %.4f, ceiling %.4f", thr, c)
	}}
}

// gap is f(b) − f(a) over the runs a, b.
func gap(name string, f func(*Result) float64, a, b string) statistic {
	return statistic{fmt.Sprintf("%s(%s) − %s(%s)", name, b, name, a), func(rs []reading) (float64, string) {
		x, y := f(rs[0].Result), f(rs[1].Result)
		return y - x, fmt.Sprintf("%s %.4g, %s %.4g", a, x, b, y)
	}}
}

// ratio is f(b) / f(a) over the runs a, b.
func ratio(name string, f func(*Result) float64, a, b string) statistic {
	return statistic{fmt.Sprintf("%s(%s) / %s(%s)", name, b, name, a), func(rs []reading) (float64, string) {
		x, y := f(rs[0].Result), f(rs[1].Result)
		return y / x, fmt.Sprintf("%s %.4g, %s %.4g", a, x, b, y)
	}}
}

// bottleneckShare is what group 0's bottleneck router injects over the
// mean of its peers — NaN when the peers inject nothing.
var bottleneckShare = statistic{"bottleneck injections / peers' mean", func(rs []reading) (float64, string) {
	bneck, _ := topology.New(rs[0].cfg.Topology).GlobalRouterFor(0, 1)
	inj := rs[0].GroupInjections(0)
	mean := float64(sum(inj)-inj[bneck]) / float64(len(inj)-1)
	if mean == 0 {
		return math.NaN(), fmt.Sprint(inj)
	}
	return float64(inj[bneck]) / mean, fmt.Sprint(inj)
}}

// groupInjections is the packets group g's routers inject.
func groupInjections(g int) statistic {
	return statistic{fmt.Sprintf("group %d injections", g), func(rs []reading) (float64, string) {
		inj := rs[0].GroupInjections(g)
		return float64(sum(inj)), fmt.Sprint(inj)
	}}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func paperClaims() []claim {
	transit, rr := router.TransitOverInjection, router.RoundRobin
	sec3 := "Section III"
	throughput, latency := (*Result).Throughput, (*Result).AvgLatency
	cov := func(r *Result) float64 { return r.Fairness().CoV }
	maxMin := func(r *Result) float64 { return r.Fairness().MaxMin }
	misroute := func(r *Result) float64 { return r.Breakdown().Misroute }
	waitInj := func(r *Result) float64 { return r.Breakdown().WaitInj }
	base := func(r *Result) float64 { return r.Breakdown().Base }
	// Figure 3 reads the Figure 4 In-Trns-MM point and the same network at
	// a low load; the Section III allocation replaces its pattern with
	// uniform application traffic over h+1 consecutive groups.
	mm := fair("In-Trns-MM", transit)
	low, app := mm, mm
	low.cfg.Load = 0.05
	app.apps = mm.cfg.Topology.H + 1
	cs := []claim{
		// MIN saturates at 1/(a*p) under ADV+1 and near h/(a*p) under ADVc
		// — less severe than ADV; past saturation it sits at (or just
		// below) the analytic ceiling, as does Valiant under ADV+1. Twice
		// the h=2 ADVc ceiling is 0.5, the load of the MIN/ADVc bound, so
		// the bound and its ceiling check share one run and one row.
		{id: "min-bound/ADV", source: sec3, reads: []runKey{h2("MIN", "ADV+1", 0.5)},
			stat: ofCeiling("MinThroughputADV", analytic.MinThroughputADV), must: within(0.8, 1.1)},
		{id: "ceiling/MIN-ADV", source: sec3, reads: []runKey{saturating("MIN", "ADV+1", analytic.MinThroughputADV)},
			stat: ofCeiling("MinThroughputADV", analytic.MinThroughputADV), must: within(0.85, 1.05)},
		{id: "ceiling/MIN-ADVc", source: sec3, reads: []runKey{saturating("MIN", "ADVc", analytic.MinThroughputADVc)},
			stat: ofCeiling("MinThroughputADVc", analytic.MinThroughputADVc), must: within(0.70, 1.05)},
		{id: "ceiling/VAL-ADV", source: "Figure 2b", reads: []runKey{saturating("Obl-RRG", "ADV+1", analytic.ValiantThroughputADV)},
			stat: ofCeiling("ValiantThroughputADV", analytic.ValiantThroughputADV), must: within(0.70, 1.05)},

		// Nonminimal routing avoids both limitations: Valiant sustains
		// several times the MIN ceiling, near the offered 0.4.
		{id: "valiant-lifts/ADV", source: "Figure 2b", reads: []runKey{h2("Obl-RRG", "ADV+1", 0.4)},
			stat: metric("throughput", throughput), must: atLeast(0.35)},
		{id: "valiant-lifts/ADVc", source: "Figure 2c", reads: []runKey{h2("Obl-RRG", "ADVc", 0.4)},
			stat: metric("throughput", throughput), must: atLeast(0.35)},

		// Under UN, nonminimal paths roughly double the zero-load latency;
		// CRG saves the first local hop; PB sends minimally when nothing
		// is saturated, so source-adaptive routing tracks MIN.
		{id: "un-latency/MIN-below-Obl-RRG", source: "Figure 2a", reads: []runKey{unLow("MIN"), unLow("Obl-RRG")},
			stat: gap("latency", latency, "MIN", "Obl-RRG"), must: above(0)},
		{id: "un-latency/Obl-CRG-below-Obl-RRG", source: "Figure 2a", reads: []runKey{unLow("Obl-CRG"), unLow("Obl-RRG")},
			stat: gap("latency", latency, "Obl-CRG", "Obl-RRG"), must: above(0)},
		{id: "un-latency/Src-RRG-tracks-MIN", source: "Figure 2a", reads: []runKey{unLow("MIN"), unLow("Src-RRG")},
			stat: ratio("latency", latency, "MIN", "Src-RRG"), must: atMost(1.15)},

		// Figure 3's signature: under ADVc with in-transit MM, misrouting
		// and the injection-queue wait grow toward the unfairness peak.
		{id: "breakdown/misroute-grows", source: "Figure 3", reads: []runKey{low, mm},
			stat: gap("misroute", misroute, "load 0.05", "load 0.4"), must: above(0)},
		{id: "breakdown/wait-inj-grows", source: "Figure 3", reads: []runKey{low, mm},
			stat: gap("injection wait", waitInj, "load 0.05", "load 0.4"), must: above(0)},
		{id: "breakdown/base-positive/0.05", source: "Figure 3", reads: []runKey{low},
			stat: metric("base latency", base), must: above(0)},
		{id: "breakdown/base-positive/0.4", source: "Figure 3", reads: []runKey{mm},
			stat: metric("base latency", base), must: above(0)},

		// The job-allocation case: uniform application traffic over h+1
		// consecutive groups starves the member groups' bottleneck
		// routers, and the groups outside the allocation stay silent.
		{id: "app-allocation/starves-bottleneck", source: sec3, reads: []runKey{app},
			stat: bottleneckShare, must: atMost(0.7)},
		{id: "app-allocation/idle-groups-silent", source: sec3, reads: []runKey{app},
			stat: groupInjections(app.apps + 2), must: atMost(0)},

		// Oblivious routing is insensitive to the arbitration policy: the
		// same bars in both figures.
		{id: "oblivious-cov/transit", source: "Figures 4/6", reads: []runKey{fair("Obl-RRG", transit)},
			stat: metric("CoV", cov), must: atMost(0.08), long: true},
		{id: "oblivious-cov/round-robin", source: "Figures 4/6", reads: []runKey{fair("Obl-RRG", rr)},
			stat: metric("CoV", cov), must: atMost(0.08), long: true},

		// Under UN the transit priority costs only a little throughput
		// (the paper reports ~1.2% for MIN).
		{id: "un-priority-benign", source: "Figures 2a/5a", reads: []runKey{
			h3("MIN", "UN", 0.7, rr, 2000, 4000), h3("MIN", "UN", 0.7, transit, 2000, 4000)},
			stat: ratio("throughput", throughput, "round-robin", "transit"), must: atLeast(0.95), long: true},
	}

	// The core claim: with transit-over-injection priority under ADVc the
	// adaptive mechanisms starve the bottleneck router, whatever their
	// global misrouting policy, while oblivious routing stays fair.
	for _, mech := range []string{"Src-RRG", "Src-CRG", "In-Trns-CRG", "In-Trns-MM"} {
		cs = append(cs, claim{id: "starved/" + mech, source: "Figure 4 / Table II", reads: []runKey{fair(mech, transit)},
			stat: bottleneckShare, must: atMost(0.55), long: true})
	}
	for _, mech := range []string{"Obl-RRG", "Obl-CRG"} {
		cs = append(cs, claim{id: "not-starved/" + mech, source: "Figure 4 / Table II", reads: []runKey{fair(mech, transit)},
			stat: bottleneckShare, must: atLeast(0.80), long: true})
	}
	// Priority hurts fairness for the mechanisms the paper flags.
	for _, mech := range []string{"Src-RRG", "In-Trns-CRG", "In-Trns-MM"} {
		cs = append(cs, claim{id: "priority-raises-cov/" + mech, source: "Tables II/III",
			reads: []runKey{fair(mech, rr), fair(mech, transit)},
			stat:  gap("CoV", cov, "round-robin", "transit"), must: above(0), long: true})
	}
	// Removing the priority restores fairness for the in-transit
	// mechanisms, identically across policies; age-based arbitration (the
	// paper's future work) does so even for the worst combinations.
	fairness := func(prefix, source string, arb router.Arbitration, mechs ...string) {
		for _, mech := range mechs {
			k := []runKey{fair(mech, arb)}
			cs = append(cs,
				claim{id: prefix + "/maxmin/" + mech, source: source, reads: k,
					stat: metric("Max/Min", maxMin), must: atMost(2.0), long: true},
				claim{id: prefix + "/cov/" + mech, source: source, reads: k,
					stat: metric("CoV", cov), must: atMost(0.12), long: true})
		}
	}
	fairness("no-priority", "Figure 6 / Table III", rr, "In-Trns-RRG", "In-Trns-CRG", "In-Trns-MM")
	fairness("age", "future work, our extension", router.AgeBased, "In-Trns-CRG", "In-Trns-MM", "Src-CRG")
	return cs
}
