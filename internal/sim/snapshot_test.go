package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// driven runs net through the run cfg describes on im's engine and returns
// it.
func driven(t *testing.T, net *Network, cfg *Config, im impl) *Network {
	t.Helper()
	if err := im.drive(net, cfg, nil); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRestoreIntoRecycled proves the in-place restore path: overwriting a
// retired network (RestoreNetworkInto) must produce runs bit-identical to
// cold builds — across generations at different loads, where any state
// leaking from the recycled network's previous run (queue contents, link
// ring events, calendars, counters, allocator scratch) would surface as a
// state or statistics divergence.
func TestRestoreIntoRecycled(t *testing.T) {
	trials := []scenario{
		{h: 2, mech: "Src-CRG", pat: "ADV+1", load: 0.2, seed: 31, warmup: 5, total: 52, probeEvery: 16, captureLoad: 0.5},
		{h: 2, mech: "In-Trns-MM", pat: "ADV+1", load: 0.85, seed: 32, warmup: 5, total: 50, probeEvery: 16, captureLoad: 0.5},
		{h: 2, mech: "Obl-CRG", pat: "UN", load: 0.85, seed: 33, warmup: 5, total: 71, captureLoad: 0.85},
	}
	if testing.Short() {
		trials = trials[:1]
	}
	for trial, tr := range trials {
		// A run's configuration samples probes when the trial does (probes are
		// read-only; results must be bit-identical with them on).
		trialConfig := func() Config {
			cfg := tr.config(tr.total, 1)
			if tr.probeEvery > 0 {
				cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: tr.probeEvery})
			}
			return cfg
		}
		snapCfg := tr.config(tr.total, 1)
		snapCfg.Load = tr.captureLoad
		snap, err := NewSnapshot(snapCfg, 0)
		if err != nil {
			t.Fatal(err)
		}

		loads := []float64{tr.load, 0.85, 0.2, tr.captureLoad}
		var recycled *Network
		for gen, load := range loads {
			cfg := trialConfig()
			cfg.Load = load
			coldCfg := cfg
			coldNet, err := NewNetwork(&coldCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			driven(t, coldNet, &coldCfg, core)

			old := recycled
			net, err := RestoreNetworkInto(snap, &cfg, old)
			if err != nil {
				t.Fatal(err)
			}
			if gen > 0 && net != old {
				t.Fatalf("trial %d gen %d: retired network was not recycled in place", trial, gen)
			}
			label := fmt.Sprintf("trial %d gen %d load %.2f", trial, gen, load)
			if d := fabricDiff(driven(t, net, &cfg, core), coldNet); d != "" {
				t.Fatalf("%s: against the cold run: %s", label, d)
			}
			recycled = net
		}

		// A retired network of a different shape is still recycled: what
		// does not fit is reallocated, and the run is the cold run.
		cfg := trialConfig()
		cfg.Topology = topology.Balanced(1)
		other, err := NewSnapshot(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		cold := runOn(t, core, cfg)
		cfg = trialConfig()
		cfg.Topology = topology.Balanced(1)
		net, err := RestoreNetworkInto(other, &cfg, recycled)
		if err != nil {
			t.Fatal(err)
		}
		if net != recycled {
			t.Fatalf("trial %d: retired network of another shape was not handed back", trial)
		}
		if err := RunNetwork(net, &cfg); err != nil {
			t.Fatal(err)
		}
		if d := accumulatorsOf(net).diff(cold.acc); d != "" {
			t.Fatalf("trial %d: reshaped restore against the cold run: %s", trial, d)
		}
	}
}

// TestRestoreAcrossTemplates proves recycling by capacity: a network retired
// from one template serves the restore of another whose mechanism — and so
// its VC counts, per-port VC offsets and arena sizes — differs. Three VC
// layouts, MIN (3 local / 1 global VCs), In-Trns-MM (3/2) and Src-CRG
// (4/2), and a fourth template, In-Trns-MM on short groupskew cables, whose
// credit rings are sized cable by cable (2 slots local, 6 to 8 global, where
// the others have 3, and 32 or 51), are
// restored into each other in every ordered pair, there and back, from a
// retired network that is clean (restored, never run) and one that is dirty
// (retired at saturation, packets queued and in flight). The restored run
// must be the cold run: fabricDiff finds nothing.
func TestRestoreAcrossTemplates(t *testing.T) {
	base := DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.Pattern = "ADVc"
	base.Load = 0.85
	base.WarmupCycles = 5
	base.MeasureCycles = 60
	base.Seed = 41

	skew := topology.GroupSkewLatency{Local: 3, GlobalBase: 11, GlobalStep: 2}
	tableI := base.LatencyModel
	templates := []struct {
		name, mech string
		latency    topology.LatencyModel
	}{
		{"MIN", "MIN", tableI}, {"In-Trns-MM", "In-Trns-MM", tableI}, {"Src-CRG", "Src-CRG", tableI},
		{"In-Trns-MM/groupskew", "In-Trns-MM", skew},
	}
	cfgOf := func(i int) Config {
		cfg := base
		cfg.Mechanism, cfg.LatencyModel = templates[i].mech, templates[i].latency
		return cfg
	}
	snaps := make([]*Snapshot, len(templates))
	colds := make([]*Network, len(templates))
	for i := range templates {
		cfg := cfgOf(i)
		var err error
		if snaps[i], err = NewSnapshot(cfg, 0); err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		colds[i] = driven(t, net, &cfg, core)
	}
	layouts := map[[2]int]string{}
	for i, net := range colds[:3] {
		l, g := net.mech.VCNeeds()
		if prev, ok := layouts[[2]int{l, g}]; ok {
			t.Fatalf("%s and %s networks have the same VC counts: the test needs three VC layouts", prev, templates[i].name)
		}
		layouts[[2]int{l, g}] = templates[i].name
	}

	for from := range templates {
		for to := range templates {
			if to == from {
				continue
			}
			for _, dirty := range []bool{false, true} {
				label := fmt.Sprintf("%s -> %s (dirty %v)", templates[from].name, templates[to].name, dirty)
				fromCfg := cfgOf(from)
				old, err := RestoreNetwork(snaps[from], &fromCfg)
				if err != nil {
					t.Fatal(err)
				}
				if dirty {
					if err := RunNetwork(old, &fromCfg); err != nil {
						t.Fatal(err)
					}
					if old.InFlight() == 0 {
						t.Fatalf("%s: retired network drained — load %.2f should leave packets in flight", label, fromCfg.Load)
					}
				}
				// There and back: the return hop reslices arrays up into capacity
				// the first hop's run left stale.
				for _, m := range []int{to, from} {
					cfg := cfgOf(m)
					net, err := RestoreNetworkInto(snaps[m], &cfg, old)
					if err != nil {
						t.Fatal(err)
					}
					if net != old {
						t.Fatalf("%s: retired network was not recycled in place", label)
					}
					if d := fabricDiff(driven(t, net, &cfg, core), colds[m]); d != "" {
						t.Fatalf("%s as %s: against the cold run: %s", label, templates[m].name, d)
					}
				}
			}
		}
	}
}

// A restore from a construction template is a reset, not a copy: the
// template holds no state for it to copy, so everything the retired run left
// behind has to be cleared. Restored over a network retired mid-flight — at
// saturation, with job attribution over three jobs where the template has
// two — the network is a cold build of the template's configuration: state
// vectors, per-router and per-job accumulators, live job counters and the
// packet count equal, right after the restore and after a run.
func TestTemplateRestoreResetsRetiredNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.9
	cfg.WarmupCycles = 5
	cfg.MeasureCycles = 80
	cfg.Seed = 23
	jobs := func(n int) *workload.Workload {
		var spec workload.Spec
		for j := 0; j < n; j++ {
			spec.Jobs = append(spec.Jobs, workload.JobSpec{Nodes: 24, Alloc: workload.AllocSpread})
		}
		wl, err := workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	retired, err := NewNetwork(&cfg, jobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(retired, &cfg); err != nil {
		t.Fatal(err)
	}
	if retired.InFlight() == 0 || retired.LiveJobDelivered(2, nil) == 0 {
		t.Fatal("the retired run left no packet in flight or delivered nothing for its third job")
	}
	tmpl, err := newCoreNetwork(&cfg, jobs(2), router.NewTemplate)
	if err != nil {
		t.Fatal(err)
	}
	net, err := RestoreNetworkInto(&Snapshot{cfg: cfg, tmpl: tmpl}, &cfg, retired)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewNetwork(&cfg, jobs(2))
	if err != nil {
		t.Fatal(err)
	}
	compare := func(when string) {
		t.Helper()
		if d := fabricDiff(net, cold); d != "" {
			t.Fatalf("%s: against the cold build: %s", when, d)
		}
		for r := range cold.topo.NumRouters() {
			for j := range 2 {
				if got, want := net.fab.LiveJobDelivered(r, j), cold.fab.LiveJobDelivered(r, j); got != want {
					t.Fatalf("%s: router %d delivered %d packets of job %d, the cold build %d", when, r, got, j, want)
				}
			}
		}
	}
	compare("restored")
	for _, n := range []*Network{net, cold} {
		if err := RunNetwork(n, &cfg); err != nil {
			t.Fatal(err)
		}
	}
	if cold.LiveJobDelivered(1, nil) == 0 {
		t.Fatal("the run delivered nothing for the second job")
	}
	compare("after a run")
}

// A Sibling borrows streams and wiring, so it is refused wherever they
// would differ: another seed, latency model or topology, and any snapshot
// that is not a construction template — a warm one, whose streams have
// run, or a capture of a live network. Within the family it restores
// exactly what NewSnapshot's template restores.
func TestSiblingStaysInItsFamily(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism, cfg.Pattern, cfg.Load = "In-Trns-MM", "ADVc", 0.7
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 60
	first, err := NewSnapshot(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"latency":  func(c *Config) { c.LatencyModel = topology.GroupSkewLatency{Local: 3, GlobalBase: 11, GlobalStep: 2} },
		"topology": func(c *Config) { c.Topology = topology.Balanced(1) },
	} {
		c := cfg
		edit(&c)
		if _, err := first.Sibling(c); err == nil {
			t.Errorf("a sibling of another %s was not refused", name)
		}
	}
	warm, err := NewSnapshot(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Snapshot{"warm snapshot": warm, "capture": capture} {
		if _, err := s.Sibling(cfg); err == nil {
			t.Errorf("a %s gave a sibling", name)
		}
	}

	sib := cfg
	sib.Mechanism = "Src-CRG"
	borrowed, err := first.Sibling(sib)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := NewSnapshot(sib, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nets [2]*Network
	for i, s := range []*Snapshot{alone, borrowed} {
		net, err := RestoreNetwork(s, &sib)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = driven(t, net, &sib, core)
	}
	if d := fabricDiff(nets[1], nets[0]); d != "" {
		t.Fatalf("restored from a sibling: %s", d)
	}
}

// TestWarmSnapshotSameLoadExact proves the strong half of the warm-reuse
// contract: a run restored from a warm snapshot at the capture load, with a
// zero warm-up, produces exactly the statistics of a cold run that warmed
// up from scratch — every per-router counter equal, LastActivity shifted by
// exactly the warm-up length (restored runs start at cycle 0).
func TestWarmSnapshotSameLoadExact(t *testing.T) {
	const W, M = 600, 900
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = "Src-CRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.6
	cfg.WarmupCycles = W
	cfg.MeasureCycles = M
	cfg.Seed = 12

	coldCfg := cfg
	coldNet, err := NewNetwork(&coldCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(coldNet, &coldCfg); err != nil {
		t.Fatal(err)
	}
	want := accumulatorsOf(coldNet)
	for r := range want.routers {
		want.routers[r].LastActivity -= W
	}

	snap, err := NewSnapshot(cfg, W)
	if err != nil {
		t.Fatal(err)
	}
	if snap.warm != W {
		t.Fatalf("snapshot warm = %d, want %d", snap.warm, W)
	}
	for _, workers := range workerCounts(1, numCPU) {
		warmCfg := cfg
		warmCfg.WarmupCycles = 0
		warmCfg.Workers = workers
		net, err := RestoreNetwork(snap, &warmCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunNetwork(net, &warmCfg); err != nil {
			t.Fatal(err)
		}
		if d := accumulatorsOf(net).diff(want); d != "" {
			t.Fatalf("workers %d: against the cold run: %s", workers, d)
		}
	}
}

// TestWarmSnapshotRefusesOtherLoad: a warm snapshot carries the queues of
// its capture load, so it restores only there. A restore at another load —
// or with another mechanism or seed — is refused, and the load error names
// both loads. A live capture taken after cycles ran is held to the same
// rule.
func TestWarmSnapshotRefusesOtherLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Load = 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 200
	cfg.Seed = 5

	snap, err := NewSnapshot(cfg, cfg.WarmupCycles)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WarmupNetwork(live, &cfg, 50); err != nil {
		t.Fatal(err)
	}
	capture, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Snapshot{"warm snapshot": snap, "live capture": capture} {
		same := cfg
		same.WarmupCycles = 0
		if _, err := RestoreNetwork(s, &same); err != nil {
			t.Fatalf("%s: restore at the capture load: %v", name, err)
		}
		other := same
		other.Load = 0.55
		_, err := RestoreNetwork(s, &other)
		if err == nil || !strings.Contains(err.Error(), "0.3") || !strings.Contains(err.Error(), "0.55") {
			t.Fatalf("%s: restore at another load: got %v, want a refusal naming 0.3 and 0.55", name, err)
		}
		bad := same
		bad.Mechanism = "In-Trns-MM"
		if _, err := RestoreNetwork(s, &bad); err == nil {
			t.Fatalf("%s: restore with a different mechanism was not refused", name)
		}
		bad = same
		bad.Seed = 99
		if _, err := RestoreNetwork(s, &bad); err == nil {
			t.Fatalf("%s: restore with a different seed was not refused", name)
		}
	}
}

// TestSnapshotConcurrentRestores restores and runs from one snapshot on
// several goroutines at once. Restored networks must be fully independent:
// identical results, and no data races (the CI race job runs this with
// -race, which probes every piece of accidentally shared mutable state).
func TestSnapshotConcurrentRestores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = "Src-CRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.5
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 300
	cfg.Seed = 3

	snap, err := NewSnapshot(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	results := make([]accumulators, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			net, err := RestoreNetwork(snap, &c)
			if err != nil {
				t.Error(err)
				return
			}
			if err := RunNetwork(net, &c); err != nil {
				t.Error(err)
				return
			}
			results[i] = accumulatorsOf(net)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i].routers == nil || results[0].routers == nil {
			t.Fatal("missing result")
		}
		if d := results[i].diff(results[0]); d != "" {
			t.Fatalf("concurrent restore %d: %s", i, d)
		}
	}
}
