package sim

import (
	"math"
	"runtime"
	"testing"

	"dragonfly/internal/topology"
)

// The core's hot loop must not allocate once the network reaches steady
// state: packets queue on themselves (packet.Queue), credits wait in
// fixed-capacity rings carved out of one arena sized at construction, the
// event calendars live in fixed windows, the allocator scratch is sized per
// group up front, the routing mechanisms' views are built once per network,
// and delivered packets recycle through the pool. This is the runtime
// companion of the construction-bytes gates (TestBuildFootprint below and
// cmd/dfbench, all run in CI): those lock in the build-time memory, this one
// locks the steady state at zero allocations per window — any regression (a
// calendar falling back to append, a scratch slice growing per cycle, a view
// boxed per routing decision, a per-window event buffer on the
// single-worker path) fails the test rather than showing up as GC time in a
// profile. It covers the three routing families: in-transit adaptive
// (In-Trns-MM), source adaptive with PiggyBack bits (Src-CRG) and minimal.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector write barriers allocate; the gate runs in the non-race CI job")
	}
	for _, mech := range []string{"In-Trns-MM", "Src-CRG", "MIN"} {
		t.Run(mech, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = topology.Balanced(3)
			cfg.Mechanism = mech
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
		})
	}
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A network is its state, not reservations for the worst case: a paper-scale
// (h=6, 5,256-node) build fits in 15 MiB, and its bytes do not depend on how
// deep the Table I source queue may grow — a packet queues on itself, so a
// 16-packet and a 256-packet source queue cost the same.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	build := func(mech string, sourceQueue int) uint64 {
		cfg := PaperConfig()
		cfg.Mechanism = mech
		cfg.Router.InjectionQueuePackets = sourceQueue
		return allocated(func() {
			if _, err := NewNetwork(&cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const limit = 15 << 20
	for _, mech := range []string{"In-Trns-MM", "Src-CRG"} {
		deep, shallow := build(mech, 256), build(mech, 16)
		t.Logf("%s: h=6 build %.2f MiB (source queue 256), %.2f MiB (16)", mech, float64(deep)/(1<<20), float64(shallow)/(1<<20))
		if deep > limit {
			t.Errorf("%s: an h=6 build allocates %.2f MiB, want at most %d MiB", mech, float64(deep)/(1<<20), limit>>20)
		}
		if diff := math.Abs(float64(deep)-float64(shallow)) / float64(shallow); diff > 0.01 {
			t.Errorf("%s: a 256-packet source queue builds %d B, a 16-packet one %d B (%.1f%% apart): the build reserves queue depth",
				mech, deep, shallow, 100*diff)
		}
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
