package sim

import (
	"fmt"
	"runtime"
	"testing"

	"dragonfly/internal/topology"
)

// The core lives as long as its network and is stepped in place, so a run
// may be split at any cycle boundary into several engine calls on the same
// network: k-1 WarmupNetwork segments and a final RunNetwork with no
// warm-up of its own must reach exactly the state, and measure exactly the
// statistics, of the unsplit run. Every call counts its cycles from 0
// (Network.rebase shifts the state left behind), so the comparison rebases
// both networks to their own end of run first; that also shifts
// LastActivity, the one statistic that carries an absolute cycle, by the
// cycles the split run spent in earlier segments.
//
// One artefact needs care: a packet still waiting in its injection queue
// carries no injection time yet (the field holds 0 until the event), and
// that placeholder shifts with however many rebases followed the packet's
// generation. The sources therefore fall silent shortly before the end, so
// every queued packet has been injected — plenty remain in transit — and
// the state vectors compare word for word.
func TestSplitRunMatchesUnsplit(t *testing.T) {
	const W, M, quiet = 420, 700, 100
	cases := []struct {
		mech, pat string
		load      float64
		splits    []int64 // warm-up segment lengths, summing to W
	}{
		{"In-Trns-MM", "ADVc", 0.15, []int64{420}},
		{"Src-CRG", "UN", 0.3, []int64{1, 200, 219}},
		{"Obl-CRG", "ADV+1", 0.2, []int64{137, 283}},
		// Segments one cycle short of and one cycle past the 100-cycle
		// window: every run's last window is cut by its own end.
		{"In-Trns-MM", "UN", 0.4, []int64{99, 101, 220}},
	}
	nodes := topology.New(topology.Balanced(2)).NumNodes()
	silenceAt := func(cycle int64) *churnController {
		return &churnController{events: silenceAll(cycle, nodes)}
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/%s/%d-way/w%d", tc.mech, tc.pat, len(tc.splits)+1, workers)
			cfg := DefaultConfig()
			cfg.Topology = topology.Balanced(2)
			cfg.Mechanism, cfg.Pattern, cfg.Load = tc.mech, tc.pat, tc.load
			cfg.WarmupCycles, cfg.MeasureCycles = W, M
			cfg.Seed = 41

			whole, err := NewNetwork(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(whole, W, W+M, workers, silenceAt(W+M-quiet)); err != nil {
				t.Fatal(err)
			}

			split, err := NewNetwork(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range tc.splits {
				if err := run(split, seg, seg, workers, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := run(split, 0, M, workers, silenceAt(M-quiet)); err != nil {
				t.Fatal(err)
			}
			for r := range whole.topo.NumRouters() {
				for i := 0; i < cfg.Topology.P; i++ {
					if whole.core.InjectionBacklog(r, i) != 0 {
						t.Fatalf("%s: injection queue (%d,%d) did not drain in the quiet tail", name, r, i)
					}
				}
			}
			if whole.InFlight() == 0 {
				t.Fatalf("%s: nothing in flight at the end of the unsplit run", name)
			}
			whole.rebase()
			split.rebase()
			if d := fabricDiff(split, whole); d != "" {
				t.Fatalf("%s: against the unsplit run: %s", name, d)
			}
		}
	}
}

// A snapshot may be taken on any network between runs, leaves it untouched
// (it still equals a twin warmed alongside it), and the network keeps
// running afterwards: snapshot mid-way, finish the run on the original and
// on a restore, and both must agree.
func TestSnapshotBetweenRunsLeavesNetworkRunning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism, cfg.Pattern, cfg.Load = "Src-CRG", "ADVc", 0.5
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 400
	cfg.Seed = 8
	var nets [2]*Network
	for i := range nets {
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := WarmupNetwork(net, &cfg, 300); err != nil {
			t.Fatal(err)
		}
		nets[i] = net
	}
	net, twin := nets[0], nets[1]
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := fabricDiff(net, twin); d != "" {
		t.Fatalf("source after Snapshot: %s", d)
	}

	if err := RunNetwork(net, &cfg); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreNetwork(snap, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Workers = runtime.NumCPU()
	if err := RunNetwork(restored, &c); err != nil {
		t.Fatal(err)
	}
	if d := accumulatorsOf(restored).diff(accumulatorsOf(net)); d != "" {
		t.Fatalf("restored run diverges from the network the snapshot was taken on: %s", d)
	}
}
