package sim

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
)

// equivCfg is the cross-engine equivalence configuration: long enough for
// steady state and a couple of batch boundaries, small enough to run the
// full engine × mechanism × pattern × load matrix in seconds.
func equivCfg(mech, pattern string, load float64) Config {
	cfg := DefaultConfig()
	cfg.Mechanism = mech
	cfg.Pattern = pattern
	cfg.Load = load
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1500
	return cfg
}

// runOn builds a fresh network with im and drives it with im's engine.
func runOn(t *testing.T, im impl, cfg Config) outcome {
	t.Helper()
	net, err := im.build(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.drive(net, &cfg, nil); err != nil {
		t.Fatal(err)
	}
	return outcomeOf(net, &cfg)
}

// runRef runs the dense oracle (ring links, the seed configuration).
func runRef(t *testing.T, cfg Config) outcome { return runOn(t, oracle, cfg) }

// runSched runs the active-router scheduler engine, bypassing the NumCPU
// clamp so the parallel path is exercised even on small CI machines. It
// returns the outcome and the number of router-steps executed.
func runSched(t *testing.T, cfg Config, workers int) (outcome, int64) {
	t.Helper()
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, workers, nil); err != nil {
		t.Fatal(err)
	}
	return outcomeOf(net, &cfg), net.engineSteps
}

// The tentpole guarantee: the active-router scheduler produces bit-identical
// results to the dense seed engine for every worker count, across mechanism
// classes (Src- exercises the PB barrier phase), traffic patterns and loads
// from near-idle to saturation.
func TestSchedulerMatchesReferenceEngine(t *testing.T) {
	mechs := []string{"MIN", "Src-CRG", "In-Trns-MM"}
	patterns := []string{"UN", "ADVc"}
	loads := []float64{0.05, 0.35, 0.8}
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		mechs = []string{"MIN", "Src-CRG"}
		loads = []float64{0.05, 0.35}
	}
	for _, mech := range mechs {
		for _, pat := range patterns {
			for _, load := range loads {
				cfg := equivCfg(mech, pat, load)
				ref := runRef(t, cfg)
				for _, workers := range workerCounts {
					res, _ := runSched(t, cfg, workers)
					requireIdentical(t, cfg.Mechanism+"/"+cfg.Pattern, ref, res)
				}
			}
		}
	}
}

// At low load the scheduler must actually skip work: well under half of the
// dense engine's router-steps (the perf win the BENCH_engine.json harness
// tracks), without giving up bit-identity (checked above).
func TestSchedulerSkipsQuiescentRouters(t *testing.T) {
	cfg := equivCfg("In-Trns-MM", "UN", 0.1)
	dense := int64(cfg.Topology.Routers()) * (cfg.WarmupCycles + cfg.MeasureCycles)
	for _, workers := range []int{1, 2} {
		_, steps := runSched(t, cfg, workers)
		if steps <= 0 || steps >= dense/2 {
			t.Errorf("workers=%d: executed %d of %d dense router-steps; expected < 50%% at load 0.1",
				workers, steps, dense)
		}
	}
	// Zero load: after the initial settling cycle nothing ever wakes.
	zero := cfg
	zero.Load = 0
	_, steps := runSched(t, zero, 1)
	if n := int64(zero.Topology.Routers()); steps != n {
		t.Errorf("zero load executed %d router-steps, want exactly one settling step per router (%d)", steps, n)
	}
}

// The deadlock watchdog must keep firing when the scheduler has put every
// router to sleep. A packet is marooned on an unplugged link, after which
// the whole network is quiescent forever — exactly the state where a naive
// active-set engine would idle past the stall.
func TestWatchdogFiresWithSleepingRouters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Load = 0
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 4 * watchdogInterval
	for _, workers := range []int{1, 2} {
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Detach router 0's local port 0 from its receiver: packets sent
		// there serialize onto a dead cable and never arrive anywhere.
		net.core.Unplug(0, 0)

		// Hand-inject one packet whose minimal route uses that port.
		src := net.topo.NodeID(0, 0)
		dst := net.topo.NodeID(net.topo.LocalNeighbor(0, 0), 0)
		pkt := &packet.Packet{}
		pkt.Reset()
		pkt.Src, pkt.Dst = int32(src), int32(dst)
		pkt.Size = int16(net.rcfg.PacketSize)
		min := net.topo.MinimalPathLength(src, dst)
		pkt.MinLocal, pkt.MinGlobal = uint8(min.Local), uint8(min.Global)
		net.mech.OnGenerate(&net.env, pkt, &net.nodes[src].rnd)
		net.core.EnqueueInjection(0, 0, pkt)

		err = run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, workers, nil)
		if err == nil {
			t.Fatalf("workers=%d: marooned packet went undetected", workers)
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
	}
}

// h3Cfg is equivCfg on the balanced h=3 network (114 routers, 342 nodes).
func h3Cfg(mech, pat string, load float64) Config {
	cfg := equivCfg(mech, pat, load)
	cfg.Topology = topology.Balanced(3)
	cfg.Seed = 7
	return cfg
}

// jobTrace scripts a small job trace for churnController: every job
// {arrival, departure, first node, nodes} switches a block of consecutive
// nodes on at its arrival and off at its departure. No jobs, no controller.
func jobTrace(jobs [][4]int64) Controller {
	if jobs == nil {
		return nil
	}
	c := &churnController{}
	for _, j := range jobs {
		for k := 0; k < int(j[3]); k++ {
			c.events = append(c.events,
				churnEvent{cycle: j[0], node: int(j[2]) + k, on: true, load: 0.3},
				churnEvent{cycle: j[1], node: int(j[2]) + k})
		}
	}
	sort.SliceStable(c.events, func(a, b int) bool { return c.events[a].cycle < c.events[b].cycle })
	return c
}

// Which router-steps execute is a contract, not an implementation detail:
// the step count is the work counter every perf record of the repository is
// normalised by (router.steps, ns/step), so an engine change that moves it
// — waking differently, stepping a router that has nothing to do — must show
// up here, not as an unexplained shift in a benchmark. Five h=3 cases:
// saturation, a mostly sleeping PiggyBack network, a controller switching
// jobs on and off mid-run, a heterogeneous latency model, and one-node jobs
// whose router sleeps on nothing but the node's next arrival when the job
// departs. The numbers may only ever fall. History, oldest first: the
// cycle-major heap-calendar engine stepped 210941 / 58707 / 102960 / 157104 /
// 3285 times; the wake array dropped the fifth to 3281 (a cancelled arrival
// left no heap entry behind to pay a no-op step for); waking routers for
// work only — releases, credits and arrivals settled lazily, a controller-
// touched router woken at its next arrival instead of at the event — brought
// all five to the values below. A wake-up is a function of the event alone,
// not of when the event is announced, so the numbers hold at any worker
// count; the results are compared with the oracle's.
func TestEngineStepsPinned(t *testing.T) {
	sat := h3Cfg("In-Trns-MM", "ADVc", 0.4)
	sat.Router.Arbitration = router.TransitOverInjection
	skew := h3Cfg("In-Trns-MM", "UN", 0.2)
	applyLatency(t, &skew, 10, 100, "groupskew")
	cases := []struct {
		name  string
		cfg   Config
		trace [][4]int64
		steps int64
	}{
		{"In-Trns-MM/ADVc@0.4/transit-priority", sat, nil, 190178},
		{"Src-CRG/UN@0.05", h3Cfg("Src-CRG", "UN", 0.05), nil, 31777},
		{"job trace", h3Cfg("In-Trns-MM", "UN", 0), [][4]int64{
			{0, 700, 0, 48}, {1, 350, 48, 24}, {99, 1200, 100, 60}, {100, 1101, 200, 36},
			{350, 1999, 48, 40}, {777, 1300, 240, 72}, {1200, 1700, 160, 40}, {1301, 1302, 0, 12},
		}, 66736},
		{"groupskew", skew, nil, 108077},
		{"cancelled generation", h3Cfg("In-Trns-MM", "UN", 0), [][4]int64{
			{0, 300, 0, 1}, {0, 450, 30, 1}, {0, 610, 60, 1}, {0, 777, 90, 1},
			{100, 900, 120, 1}, {200, 1000, 150, 1}, {300, 1200, 180, 1}, {400, 1500, 210, 1},
		}, 1683},
	}
	for _, tc := range cases {
		ref, err := oracle.build(&tc.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.drive(ref, &tc.cfg, jobTrace(tc.trace)); err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(ref, &tc.cfg)
		if want.Delivered() == 0 {
			t.Fatalf("%s: nothing delivered", tc.name)
		}
		for _, workers := range []int{1, 2} {
			net, err := NewNetwork(&tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(net, tc.cfg.WarmupCycles, tc.cfg.WarmupCycles+tc.cfg.MeasureCycles, workers, jobTrace(tc.trace)); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, tc.name, want, outcomeOf(net, &tc.cfg))
			if got := net.EngineSteps(); got != tc.steps {
				t.Errorf("%s workers=%d: %d router-steps, pinned %d", tc.name, workers, got, tc.steps)
			}
		}
	}
}

// The invariant the engine's skipping rests on, checked directly rather than
// through Settle's slept-through panics: between two windows no router's
// wake-up is later than its next generated packet, than the cycle a packet
// in flight towards it becomes allocatable, or than a credit in flight
// towards one of its starved outputs; its Settle gate is no later than
// anything unapplied in its rings and calendars (Core.CheckSleep reads them,
// not the cached minima); and every group's nextWake is exactly the minimum
// of its routers' wake-ups.
func TestWakeCoversPendingEvents(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		trace [][4]int64
	}{
		{"In-Trns-MM/ADVc@0.4", h3Cfg("In-Trns-MM", "ADVc", 0.4), nil},
		{"Src-CRG/UN@0.05", h3Cfg("Src-CRG", "UN", 0.05), nil},
		{"job trace", h3Cfg("In-Trns-MM", "UN", 0), [][4]int64{
			{0, 700, 0, 48}, {1, 350, 48, 24}, {99, 1200, 100, 60}, {0, 450, 300, 1}, {350, 1999, 48, 40},
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			net, err := NewNetwork(&tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(net, workers)
			total := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles
			d := newDriver(net, tc.cfg.WarmupCycles, total, jobTrace(tc.trace), e)
			for now := int64(0); now < total; {
				to, _, err := d.window(now)
				if err != nil {
					t.Fatal(err)
				}
				now = to
				for r, at := range e.wakeAt {
					if gen := net.genWake[r]; gen >= 0 && at > gen {
						t.Fatalf("%s workers=%d cycle %d: router %d wakes at %d, its next arrival is at %d", tc.name, workers, now, r, at, gen)
					}
					if err := net.core.CheckSleep(r, at); err != nil {
						t.Fatalf("%s workers=%d cycle %d: %v", tc.name, workers, now, err)
					}
				}
				for g, next := range e.nextWake {
					if lowest := slices.Min(e.wakeAt[g*e.per : (g+1)*e.per]); next != lowest {
						t.Fatalf("%s workers=%d cycle %d: group %d nextWake %d, its routers' minimum is %d", tc.name, workers, now, g, next, lowest)
					}
				}
			}
			d.finish()
		}
	}
}

// The re-scoped slept-through check, exercised by a mutant: an engine whose
// sink parks credits but never wakes anybody for one. A router asleep on a
// starved output then sleeps through the credit that would have let it send,
// and the run would drift away from the oracle's — silently, had Settle not
// kept the check the eager credit pop used to make. It must panic in the
// credit pop, naming the starved port, the first time the router is looked at
// again. (MIN under ADV+1 at a tenth of the load: the one global link a group
// funnels into is saturated while the routers feeding it have nothing else
// to do — at saturation proper a starved router is awake anyway, retrying its
// blocked inputs, and the sink's wake-up is never the one that counts.)
func TestUnwokenStarvedPortPanics(t *testing.T) {
	cfg := h3Cfg("MIN", "ADV+1", 0.1)
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(net, 1)
	e.core.SetAllSinks(func(ev router.LinkEvent) {
		if at := e.core.PushDue(ev.Router, ev); at >= 0 && !ev.Credit {
			e.wake(ev.Router, at)
		}
	})
	total := cfg.WarmupCycles + cfg.MeasureCycles
	d := newDriver(net, cfg.WarmupCycles, total, nil, e)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "starved port") || !strings.Contains(msg, "scheduler failed to wake") {
			t.Fatalf("the mutant engine did not die in the credit pop: recovered %q", msg)
		}
	}()
	for now := int64(0); now < total; {
		if now, _, err = d.window(now); err != nil {
			t.Fatalf("the mutant engine stalled instead of panicking: %v", err)
		}
	}
	d.finish()
	t.Fatal("the mutant engine ran to the end: no router ever slept on a starved output, or the check is gone")
}
