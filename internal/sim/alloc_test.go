package sim

import (
	"math"
	"runtime"
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// The core's hot loop must not allocate once the network reaches steady
// state: packets queue on themselves (packet.Queue), credits wait in
// fixed-capacity rings carved out of one arena sized at construction, the
// event calendars live in fixed windows, the allocator scratch is sized per
// worker when the run starts, the routing mechanisms' views are built once
// per network, and delivered packets go back to the network's free list,
// which the next generated packet comes off. This is the
// runtime companion of the construction-bytes gates (TestBuildFootprint
// and TestTemplateFootprint below, run in CI): those lock in the build-time
// memory, this one locks the steady state at zero allocations per window —
// any regression (a calendar falling back to append, a scratch slice growing
// per cycle, a view boxed per routing decision, a per-window event buffer on
// the single-worker path) fails the test rather than showing up as GC time
// in a profile. It covers the three routing families: in-transit adaptive
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
			// free list of packets reach their steady-state capacities.
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
// (h=6, 5,256-node) build fits in 10 MiB — a port holds the VC records of
// the VCs it has, not of the widest port class's, a credit ring what its
// link can have in flight, not what its port can be owed, and the allocator
// scratch is the engine's, per worker, not the build's — and its bytes do not depend
// on how deep the Table I source queue may grow: a packet queues on itself,
// so a 16-packet and a 256-packet source queue cost the same. A fresh
// restore — from a construction template, into no retired network — builds
// the same state, and is held to the same bytes. The engine benchmark's
// smaller points, an h=4 build and a fresh h=3 restore, may not grow more
// than 20 % past their bytes when their bounds were set.
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
	const limit = 10 << 20 // 10 MiB
	for _, mech := range []string{"In-Trns-MM", "Src-CRG"} {
		deep, shallow := build(mech, 256), build(mech, 16)
		t.Logf("%s: h=6 build %.2f MiB (source queue 256), %.2f MiB (16)", mech, float64(deep)/(1<<20), float64(shallow)/(1<<20))
		if deep > limit {
			t.Errorf("%s: an h=6 build allocates %.2f MiB, want at most %.1f MiB", mech, float64(deep)/(1<<20), float64(limit)/(1<<20))
		}
		if diff := math.Abs(float64(deep)-float64(shallow)) / float64(shallow); diff > 0.01 {
			t.Errorf("%s: a 256-packet source queue builds %d B, a 16-packet one %d B (%.1f%% apart): the build reserves queue depth",
				mech, deep, shallow, 100*diff)
		}
		cfg := PaperConfig()
		cfg.Mechanism = mech
		snap, err := NewSnapshot(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		restored := allocated(func() {
			if _, err := RestoreNetwork(snap, &cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: h=6 fresh restore %.2f MiB", mech, float64(restored)/(1<<20))
		if restored > limit {
			t.Errorf("%s: a fresh h=6 restore allocates %.2f MiB, want at most %.1f MiB", mech, float64(restored)/(1<<20), float64(limit)/(1<<20))
		}
	}

	// Their first baselines, 2,625,624 B and 839,832 B, were a quarter
	// above these bytes: a doubled credit arena fit under them.
	h4, h3 := engineAt(4, 0.1, 1, 100).full(), engineAt(3, 0.1, 1, 100).full()
	snap, err := NewSnapshot(h3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		baseline uint64
		build    func() (*Network, error)
	}{
		{"an h=4 build", 1_972_552, func() (*Network, error) { return NewNetwork(&h4, nil) }},
		{"a fresh h=3 restore", 620_928, func() (*Network, error) { return RestoreNetwork(snap, &h3) }},
	} {
		got := allocated(func() {
			if _, err := tc.build(); err != nil {
				t.Fatal(err)
			}
		})
		limit := tc.baseline * 6 / 5
		t.Logf("%s: %d B (limit %d)", tc.name, got, limit)
		if got > limit {
			t.Errorf("%s allocates %d B, want at most %d (%d B + 20 %%)", tc.name, got, limit, tc.baseline)
		}
	}
}

// Past the build, what a run allocates is its live packets, at the 128 bytes
// of a packet.Packet each: a saturated run's heap bytes, divided by the most
// packets it held at once (source queues included), stay within a few bytes
// of 128. A packet is allocated only when the network's free list is empty,
// so the run allocates its peak of live packets once; the rest — the probe
// summary, the engine's arrays — is noise on tens of thousands of packets.
func TestRunAllocatesItsLivePackets(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism, cfg.Pattern, cfg.Load = "In-Trns-MM", "ADVc", 1.0
	cfg.Router.Arbitration = router.TransitOverInjection
	cfg.WarmupCycles, cfg.MeasureCycles = 500, 1500
	cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: 25})
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bytes := allocated(func() {
		if err := RunNetwork(net, &cfg); err != nil {
			t.Fatal(err)
		}
	})
	peak := net.telemetry.PeakInFlight
	perPacket := float64(bytes) / float64(peak)
	t.Logf("h=3 saturated run: %d B allocated, peak %d live packets: %.1f B per live packet", bytes, peak, perPacket)
	if peak < 10000 {
		t.Fatalf("peak of %d live packets: the run is not saturated enough to meter packets", peak)
	}
	if perPacket > 128+8 {
		t.Errorf("a run allocates %.1f B per live packet, want at most 136 (a packet is 128)", perPacket)
	}
}

// A construction template is what an empty network cannot compute, not an
// empty network: the wiring and the RNG streams, no state array (a restore
// writes the empty state itself). At h=6 that is at most 1.5 MiB, against
// TestBuildFootprint's 10 MiB build; the engine benchmark's h=3 template
// may not grow more than 20 % past its 54,840 B.
func TestTemplateFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	paper := func(mech string) Config {
		cfg := PaperConfig()
		cfg.Mechanism = mech
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		limit uint64
	}{
		{"In-Trns-MM h=6", paper("In-Trns-MM"), 3 << 19},
		{"Src-CRG h=6", paper("Src-CRG"), 3 << 19},
		{"In-Trns-MM h=3", engineAt(3, 0.1, 1, 100).full(), 54_840 * 6 / 5},
	} {
		got := allocated(func() {
			if _, err := NewSnapshot(tc.cfg, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: construction template %d B (limit %d)", tc.name, got, tc.limit)
		if got > tc.limit {
			t.Errorf("%s: a construction template allocates %d B, want at most %d", tc.name, got, tc.limit)
		}
	}
}

// The templates of one family (FamilyOf: topology, latency model, seed)
// share what depends on nothing else: the first one is the wiring and the
// RNG streams, at most 0.75 MiB at h=6, and every further one — another
// mechanism or pattern, a Sibling — only what its own configuration
// decides: port-class tables, pattern, PiggyBack state, at most 96 KiB.
func TestTemplateFamilyFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	const firstLimit, siblingLimit = 3 << 18, 96 << 10
	cfg := PaperConfig()
	cfg.Mechanism = "In-Trns-MM"
	var first *Snapshot
	var err error
	got := allocated(func() { first, err = NewSnapshot(cfg, 0) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("h=6 first template of a family (%s/%s): %.3f MiB", cfg.Mechanism, cfg.Pattern, float64(got)/(1<<20))
	if got > firstLimit {
		t.Errorf("the first h=6 template of a family allocates %.3f MiB, want at most 0.75 MiB", float64(got)/(1<<20))
	}
	for _, mech := range []string{"In-Trns-MM", "MIN", "Src-CRG"} {
		c := cfg
		c.Mechanism, c.Pattern = mech, "ADVc"
		got := allocated(func() {
			if _, err := first.Sibling(c); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("h=6 further template of the family (%s/%s): %.1f KiB", c.Mechanism, c.Pattern, float64(got)/(1<<10))
		if got > siblingLimit {
			t.Errorf("%s: a further h=6 template of a family allocates %.1f KiB, want at most 96 KiB", mech, float64(got)/(1<<10))
		}
	}
}

// The sweep steady state — restore over a retired network, run, extract
// the result — must not rebuild what the network already owns. The core
// lives as long as its network, so a recycled point allocates the result
// and little else: well under the bytes of one build. (A layout that
// rebuilt a whole core per RunNetwork failed this by an order of
// magnitude.) TestRecycledPointAllocatesOnlyItsResult below holds the
// "little else" to 1 KiB.
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
	point() // first point on this network: arrays, engine and free list reach capacity
	if got := allocated(point); got > build/4 {
		t.Fatalf("recycled sweep point allocates %d B; one build is %d B — the point is rebuilding state", got, build)
	}
}

// A point of the sweep steady state allocates its Result and nothing else:
// once a network has run a point, restoring a template over it and running
// the next point finds every array, the engine's included, and every packet
// it needs already there — packets come off the network's own free list,
// which a restore refills with the packets the retired run left behind.
// Metered on the third point of one h=6 network at the screening grid's
// cycle counts; at most 1 KiB, where a network that drops its packets and
// engine arrays at every run pays about 147 KB.
func TestRecycledPointAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	cfg := PaperConfig()
	cfg.Mechanism, cfg.Pattern, cfg.Load = "In-Trns-MM", "UN", 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 15, 30
	cfg.Workers = 1
	snap, err := NewSnapshot(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var net *Network
	restoreAndRun := func() {
		var err error
		if net, err = RestoreNetworkInto(snap, &cfg, net); err != nil {
			t.Fatal(err)
		}
		if err := RunNetwork(net, &cfg); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		restoreAndRun()
		NewResultFrom(net, &cfg, 0)
	}
	got := allocated(restoreAndRun)
	t.Logf("h=6 recycled point: restore + run allocate %d B", got)
	if NewResultFrom(net, &cfg, 0).Delivered() == 0 {
		t.Fatal("the point delivered nothing")
	}
	if got > 1<<10 {
		t.Errorf("a recycled h=6 point allocates %d B before its result, want at most 1 KiB", got)
	}
}
