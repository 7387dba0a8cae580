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
// both networks to their own end of run first; LastActivity is the one
// statistic that carries an absolute cycle, and differs by exactly the
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
			want := newResult(whole, &cfg, 0)

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
			tail := cfg
			tail.WarmupCycles = 0
			got := newResult(split, &tail, 0)

			for r := range want.PerRouter {
				w := want.PerRouter[r]
				w.LastActivity -= W
				if got.PerRouter[r] != w {
					t.Fatalf("%s: router %d stats diverge from the unsplit run\n got %+v\nwant %+v",
						name, r, got.PerRouter[r], w)
				}
				for i := 0; i < cfg.Topology.P; i++ {
					if whole.core.InjectionBacklog(r, i) != 0 {
						t.Fatalf("%s: injection queue (%d,%d) did not drain in the quiet tail", name, r, i)
					}
				}
			}
			if g, w := split.InFlight(), whole.InFlight(); g != w || w == 0 {
				t.Fatalf("%s: in-flight %d, unsplit %d (want equal and non-zero)", name, g, w)
			}
			whole.rebase()
			split.rebase()
			diffState(t, name, stateOf(split), stateOf(whole))
		}
	}
}

// A snapshot may be taken on any network between runs, leaves it untouched,
// and the network keeps running afterwards: snapshot mid-way, finish the
// run on the original and on a restore, and both must agree.
func TestSnapshotBetweenRunsLeavesNetworkRunning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism, cfg.Pattern, cfg.Load = "Src-CRG", "ADVc", 0.5
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 400
	cfg.Seed = 8
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WarmupNetwork(net, &cfg, 300); err != nil {
		t.Fatal(err)
	}
	before := stateOf(net)
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diffState(t, "source after Snapshot", stateOf(net), before)

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
	want, got := newResult(net, &cfg, 0), newResult(restored, &c, 0)
	for r := range want.PerRouter {
		if got.PerRouter[r] != want.PerRouter[r] {
			t.Fatalf("router %d: restored run diverges from the network the snapshot was taken on", r)
		}
	}
}
