package sim

import (
	"runtime"
	"testing"

	"dragonfly/internal/topology"
)

// The core's hot loop must not allocate once the network reaches steady
// state: every queue is a fixed-capacity ring carved out of arenas sized at
// construction, the event calendars and scratch buffers reach their high-water
// capacity during warm-up, and delivered packets recycle through the pool.
// This is the runtime companion of the construction-bytes gate in
// cmd/dfbench (both run in CI): that one locks in the build-time memory
// win, this one locks the steady state at zero allocations per window — any
// regression (a queue falling back to append, a scratch slice growing per
// cycle, a per-window event buffer on the single-worker path) fails the
// test rather than showing up as GC time in a profile.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector write barriers allocate; the gate runs in the non-race CI job")
	}
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "UN"
	cfg.Load = 0.6 // saturated: every stage of the hot loop is exercised
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 10000 // phase flags stay in the measurement window
	cfg.Workers = 1
	cfg.Seed = 12345
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := newDriver(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, nil, newEngine(net, 1))
	defer run.finish()

	now := int64(0)
	step := func() {
		to, _, err := run.window(now)
		if err != nil {
			t.Fatal(err)
		}
		now = to
	}
	// Warm up past the measurement boundary so queues, calendars and the
	// packet pool reach their steady-state capacities.
	for now < 4000 {
		step()
	}
	if avg := testing.AllocsPerRun(30, step); avg != 0 {
		t.Fatalf("steady-state window allocates %.2f objects/window, want 0", avg)
	}
	if mean := float64(now) / float64(run.windows); mean < 50 {
		t.Fatalf("gate metered windows of %.1f cycles on average, want the 100-cycle lookahead", mean)
	}
	if net.InFlight() == 0 {
		t.Fatal("network drained during the gate — load 0.6 should keep it saturated")
	}
}

// The sweep steady state — restore over a retired network, run, extract
// the result — must not rebuild what the network already owns. The core
// lives as long as its network, so a recycled point allocates scheduler
// scratch, the result and little else: well under the bytes of one build.
// (The parent of this layout rebuilt a whole core per RunNetwork and fails
// this by an order of magnitude.)
func TestSweepPointAllocatesFarLessThanABuild(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "UN"
	cfg.Load = 0.3
	cfg.WarmupCycles = 15
	cfg.MeasureCycles = 30 // the h=6 screening regime: points this short
	cfg.Workers = 1

	allocated := func(fn func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	build := allocated(func() {
		if _, err := NewNetwork(&cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	snap, err := NewSnapshot(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := RestoreNetwork(snap, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	point := func() {
		var err error
		if net, err = RestoreNetworkInto(snap, &cfg, net); err != nil {
			t.Fatal(err)
		}
		if err := RunNetwork(net, &cfg); err != nil {
			t.Fatal(err)
		}
		if NewResultFrom(net, &cfg, 0).Delivered() == 0 {
			t.Fatal("point delivered nothing")
		}
	}
	point() // first point on this network: calendars and pool reach capacity
	if got := allocated(point); got > build/4 {
		t.Fatalf("recycled sweep point allocates %d B; one build is %d B — the point is rebuilding state", got, build)
	}
}
