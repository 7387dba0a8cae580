package sim

import (
	"fmt"
	"testing"

	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// A network's packets are conserved: every packet its free list allocated
// is either live — in a source queue, a buffer or on a link — or back on the
// list, after runs on one worker and on two, on the oracle's parallel
// engine, after a restore over a retired network of another mechanism and
// another h, and after ADVc runs, whose groups generate and deliver at very
// different rates (so on two workers packets change goroutines between
// generation and delivery). And the list never holds more packets than the
// network once had live: it allocates only when it is empty. Peaks are
// sampled at every cycle, and one cycle generates at most one packet per
// node between two samples.
func TestPacketsConserved(t *testing.T) {
	type ledger struct {
		net         *Network
		peak, nodes int // the most live packets sampled, the most nodes the network had
	}
	check := func(t *testing.T, when string, l *ledger) {
		t.Helper()
		allocated, free := PacketCounts(l.net)
		live := l.net.InFlight()
		if allocated != live+free {
			t.Errorf("%s: %d packets allocated, %d live + %d free = %d", when, allocated, live, free, live+free)
		}
		if free > l.peak+l.nodes {
			t.Errorf("%s: %d free packets, the network held at most %d live (+%d generated within a cycle)", when, free, l.peak, l.nodes)
		}
	}
	// drive runs l.net under cfg, the configuration it was built or
	// restored with, sampling at every cycle with probes of its own.
	drive := func(t *testing.T, im impl, l *ledger, cfg *Config) {
		t.Helper()
		cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: 1})
		if err := im.drive(l.net, cfg, nil); err != nil {
			t.Fatal(err)
		}
		l.peak = max(l.peak, l.net.telemetry.PeakInFlight, l.net.InFlight())
		l.nodes = max(l.nodes, l.net.topo.NumNodes())
	}
	advc := h3At("In-Trns-MM", "ADVc", 0.4).full()
	advc.WarmupCycles, advc.MeasureCycles = 200, 400

	for _, tc := range []struct {
		name    string
		im      impl
		workers int
		runs    int
	}{
		{"core/workers=1", core, 1, 2},
		{"core/workers=2", core, 2, 2},
		{"oracle/workers=2", oracle, 2, 1}, // an oracle network runs once
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := advc
			cfg.Workers = tc.workers
			net, err := tc.im.build(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			l := &ledger{net: net}
			for run := range tc.runs {
				drive(t, tc.im, l, &cfg)
				check(t, fmt.Sprintf("after ADVc run %d", run+1), l)
			}
			if l.peak == 0 {
				t.Fatal("no packet was ever live")
			}
		})
	}

	t.Run("restore over another h and mechanism", func(t *testing.T) {
		retiredCfg := h3At("Src-CRG", "UN", 0.6).full()
		retiredCfg.WarmupCycles, retiredCfg.MeasureCycles = 200, 300
		retiredCfg.Workers = 2
		net, err := NewNetwork(&retiredCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := &ledger{net: net}
		drive(t, core, l, &retiredCfg)
		check(t, "after the h=3 Src-CRG run", l)

		cfg := equiv("In-Trns-MM", "ADVc", 0.4).full()
		cfg.Topology = topology.Balanced(2)
		cfg.WarmupCycles, cfg.MeasureCycles = 200, 400
		cfg.Workers = 1
		snap, err := NewSnapshot(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l.net, err = RestoreNetworkInto(snap, &cfg, net); err != nil {
			t.Fatal(err)
		}
		check(t, "after restoring h=2 In-Trns-MM over it", l)
		if allocated, free := PacketCounts(l.net); l.net.InFlight() != 0 || free != allocated || free == 0 {
			t.Fatalf("restored network: %d live, %d free of %d allocated; want none live and every retired packet free", l.net.InFlight(), free, allocated)
		}
		drive(t, core, l, &cfg)
		check(t, "after the h=2 ADVc run", l)
	})
}
