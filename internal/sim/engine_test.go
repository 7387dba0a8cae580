package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
)

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

// runSched runs the active-router scheduler engine, bypassing the GOMAXPROCS
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

// At low load the scheduler must actually skip work: well under half of the
// dense engine's router-steps (the perf win TestEngineSpeedupOverOracle
// times), without giving up bit-identity (TestSchedulerMatchesReferenceEngine).
func TestSchedulerSkipsQuiescentRouters(t *testing.T) {
	cfg := equiv("In-Trns-MM", "UN", 0.1).full()
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

// The core must stay faster than the dense oracle by about as much as when
// its speed-up baseline was recorded. Both run the five h=3 steps/engine
// rows of the oracle table, each timed best of 3 in this process, so a slow or
// noisy machine slows both sides alike; the speed-up is oracle time over
// core time. The geometric mean of speed-up / baseline over the five may
// not fall below 0.80. No point is gated alone: one measurement can land
// in a throttled window, while a real regression slows every point.
// Wall-clock readings mean nothing under the race detector, and -short
// runs skip the few seconds this takes.
func TestEngineSpeedupOverOracle(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock gate: runs without -short and -race")
	}
	const reps, floor = 3, 0.80
	points := []struct {
		load     float64
		baseline float64 // the speed-up when the baseline was recorded
	}{{0.1, 2.3299}, {0.2, 1.9020}, {0.3, 1.7626}, {0.6, 1.3555}, {0.8, 1.4474}}
	best := func(im impl, cfg Config) time.Duration {
		var fastest time.Duration
		for range reps {
			net, err := im.build(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := im.drive(net, &cfg, nil); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); fastest == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	logSum := 0.0
	for _, p := range points {
		cfg := engineAt(3, p.load, 1, 1000).full()
		ref, got := best(oracle, cfg), best(core, cfg)
		speedup := float64(ref) / float64(got)
		t.Logf("UN@%.1f: oracle %v, core %v: speed-up %.2f, baseline %.2f (ratio %.2f)",
			p.load, ref, got, speedup, p.baseline, speedup/p.baseline)
		logSum += math.Log(speedup / p.baseline)
	}
	geomean := math.Exp(logSum / float64(len(points)))
	t.Logf("geometric-mean speed-up ratio %.2f (floor %.2f)", geomean, floor)
	if geomean < floor {
		t.Errorf("the core's speed-up over the oracle fell to %.2f of its baseline (geometric mean), want at least %.2f", geomean, floor)
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
	jobs := h3At("In-Trns-MM", "UN", 0)
	jobs.script = jobTrace([4]int64{0, 700, 0, 48}, [4]int64{1, 350, 48, 24}, [4]int64{99, 1200, 100, 60}, [4]int64{0, 450, 300, 1}, [4]int64{350, 1999, 48, 40})
	cases := []struct {
		name string
		sc   scenario
	}{
		{"In-Trns-MM/ADVc@0.4", h3At("In-Trns-MM", "ADVc", 0.4)},
		{"Src-CRG/UN@0.05", h3At("Src-CRG", "UN", 0.05)},
		{"job trace", jobs},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			cfg := tc.sc.full()
			net, err := NewNetwork(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(net, workers)
			total := tc.sc.total
			d := newDriver(net, tc.sc.warmup, total, tc.sc.controller(), e)
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
	cfg := h3At("MIN", "ADV+1", 0.1).full()
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
