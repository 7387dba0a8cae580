package sim

import (
	"testing"
)

// The PiggyBack state machinery: the relative saturation rule over live
// router link loads.

func pbNetwork(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mechanism = "Src-RRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.4
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPBStateCreatedForSourceAdaptive(t *testing.T) {
	net := pbNetwork(t)
	if net.pb == nil {
		t.Fatal("PB state missing for a Src mechanism")
	}
	if net.env.Group == nil {
		t.Fatal("PB group view not wired into the routing env")
	}
}

func TestPBStateAbsentOtherwise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.pb != nil {
		t.Fatal("PB state should only exist for Src mechanisms")
	}
}

func TestPBIdleNetworkUnsaturated(t *testing.T) {
	net := pbNetwork(t)
	for g := 0; g < net.topo.NumGroups(); g++ {
		net.pb.updateGroup(g)
	}
	p := net.topo.Params()
	for g := 0; g < net.topo.NumGroups(); g++ {
		v := net.pb.view(g)
		for i := 0; i < p.A; i++ {
			for k := 0; k < p.H; k++ {
				if v.GlobalSaturated(i, k) {
					t.Fatalf("idle network: link (%d,%d,%d) flagged saturated", g, i, k)
				}
			}
		}
	}
}

// Drive the network into ADV-style congestion and check that the congested
// exit link is flagged while the bottleneck-balanced case stays silent —
// the paper's relative-rule behaviour.
func TestPBRelativeRule(t *testing.T) {
	// ADV+1 concentrates load on one link per group: that link must be
	// flagged once traffic builds.
	cfg := DefaultConfig()
	cfg.Mechanism = "Src-RRG"
	cfg.Pattern = "ADV+1"
	cfg.Load = 0.4
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1500
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(net, &cfg); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < net.topo.NumGroups(); g++ {
		net.pb.updateGroup(g)
	}
	exitIdx, exitPort := net.topo.GlobalRouterFor(0, 1)
	k := exitPort - (net.topo.Params().A - 1)
	if !net.pb.view(0).GlobalSaturated(exitIdx, k) {
		t.Error("ADV+1 exit link not flagged saturated under sustained overload")
	}

	// ADVc loads the bottleneck router's links EQUALLY: the relative
	// rule must not flag them (the documented PB failure).
	cfgc := cfg
	cfgc.Pattern = "ADVc"
	netc, err := NewNetwork(&cfgc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(netc, &cfgc); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < netc.topo.NumGroups(); g++ {
		netc.pb.updateGroup(g)
	}
	bneck, _ := netc.topo.GlobalRouterFor(0, 1) // the router ADVc congests
	flagged := 0
	for k := 0; k < netc.topo.Params().H; k++ {
		if netc.pb.view(0).GlobalSaturated(bneck, k) {
			flagged++
		}
	}
	if flagged == netc.topo.Params().H {
		t.Error("ADVc: all bottleneck links flagged — the relative rule should mask equal overload")
	}
}

// The scheduler-aware PB refresh: the scheduler engines refresh a group's
// bits only when one of its routers stepped in the previous cycle. The
// results must stay bit-identical to the dense reference engine (which
// refreshes every group every cycle) for every worker count, and at a load
// that leaves routers sleeping the refresh count must actually drop.
func TestPBRefreshSchedulerBitIdentical(t *testing.T) {
	for _, pattern := range []string{"ADV+1", "ADVc", "UN"} {
		cfg := DefaultConfig()
		cfg.Mechanism = "Src-RRG"
		cfg.Pattern = pattern
		cfg.Load = 0.15 // low enough that parts of the network sleep
		cfg.WarmupCycles = 500
		cfg.MeasureCycles = 1500

		run := func(workers int, im impl) (accumulators, int64) {
			c := cfg
			c.Workers = workers
			net, err := im.build(&c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := im.drive(net, &c, nil); err != nil {
				t.Fatal(err)
			}
			return accumulatorsOf(net), net.pb.totalUpdates()
		}

		ref, refUpdates := run(1, oracle)
		dense := int64(cfg.Topology.Groups()) * (cfg.WarmupCycles + cfg.MeasureCycles)
		if refUpdates != dense {
			t.Fatalf("%s: reference engine refreshed %d group-cycles, want dense %d", pattern, refUpdates, dense)
		}
		for _, workers := range []int{1, 2, 4} {
			sched, schedUpdates := run(workers, core)
			if d := sched.diff(ref); d != "" {
				t.Fatalf("%s workers=%d: under lazy PB refresh: %s", pattern, workers, d)
			}
			if schedUpdates >= refUpdates {
				t.Errorf("%s workers=%d: scheduler refreshed %d group-cycles, reference %d — nothing skipped",
					pattern, workers, schedUpdates, refUpdates)
			}
		}
	}
}
