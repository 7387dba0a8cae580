package sim

import (
	"math"
	"slices"
	"testing"

	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// A Result is what gets reported, not a copy of the network: the merged
// accumulator plus two counters per router. At h=6 (876 routers) that is
// under 32 KiB; a copy of every router's accumulator was ~315 KiB. The
// total is the merge of the fabric's accumulators and the per-router counts
// are the fabric's own.
func TestResultFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	cfg := PaperConfig()
	cfg.Pattern, cfg.Load = "UN", 0.4
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 200
	cfg.Workers = 1
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(net, &cfg); err != nil {
		t.Fatal(err)
	}
	var res *Result
	got := allocated(func() { res = newResult(net, &cfg, 0) })
	t.Logf("h=6 result: %.1f KiB", float64(got)/(1<<10))
	if got > 32<<10 {
		t.Errorf("an h=6 result allocates %.1f KiB, want at most 32 KiB", float64(got)/(1<<10))
	}
	if res.Total.Delivered == 0 {
		t.Fatal("nothing delivered: the comparison below would be vacuous")
	}
	var want stats.Router
	acc := accumulatorsOf(net)
	for r := range acc.routers {
		want.Merge(&acc.routers[r])
		if res.RouterInjected[r] != acc.routers[r].Injected || res.RouterDelivered[r] != acc.routers[r].Delivered {
			t.Fatalf("router %d: result counts %d injected, %d delivered; the fabric %d, %d",
				r, res.RouterInjected[r], res.RouterDelivered[r], acc.routers[r].Injected, acc.routers[r].Delivered)
		}
	}
	if res.Total != want {
		t.Errorf("result total differs from the merged accumulators:\n got %+v\nwant %+v", res.Total, want)
	}
}

// The per-job side of a Result: each job's accumulators merged over every
// router, and its injections at the routers hosting it, in JobRouters order.
func TestResultCondensesJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism, cfg.Load = "In-Trns-MM", 0.4
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
	wl, err := workload.Compile(topology.New(cfg.Topology), workload.Spec{Jobs: []workload.JobSpec{
		{Name: "a", Nodes: 20, Alloc: workload.AllocConsecutive},
		{Name: "b", Nodes: 28, Alloc: workload.AllocSpread, FirstGroup: 3},
	}}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(&cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(net, &cfg); err != nil {
		t.Fatal(err)
	}
	res, acc := newResult(net, &cfg, 0), accumulatorsOf(net)
	for j := range res.NumJobs() {
		var want stats.Job
		for r := range acc.jobs {
			want.Merge(&acc.jobs[r][j])
		}
		if want.Delivered == 0 {
			t.Fatalf("job %d delivered nothing", j)
		}
		if res.JobTotal(j) != want {
			t.Errorf("job %d total differs from the merged accumulators:\n got %+v\nwant %+v", j, res.JobTotal(j), want)
		}
		// The result lists hosting routers by id, the workload in allocation order.
		if placed := slices.Sorted(slices.Values(wl.JobRouters(j))); !slices.Equal(res.JobRouters[j], placed) {
			t.Errorf("job %d hosted by %v, the workload placed it on %v", j, res.JobRouters[j], placed)
		}
		inj := res.JobInjections(j)
		for i, r := range res.JobRouters[j] {
			if inj[i] != acc.jobs[r][j].Injected {
				t.Errorf("job %d at router %d: %d injections, the fabric %d", j, r, inj[i], acc.jobs[r][j].Injected)
			}
		}
		if res.JobNodes[j] != len(wl.JobNodes(j)) {
			t.Errorf("job %d has %d nodes, the workload %d", j, res.JobNodes[j], len(wl.JobNodes(j)))
		}
	}
}

// The fabric lays the batch-means spans out over the configured measurement
// window (stats.BatchIndex), so a run a Finisher stopped early reached only
// some of them, the last maybe in part. Its batches are the spans it reached,
// each over the cycles of it that ran, and with fewer than two there is no
// interval. (Dividing all eight spans by an eighth of the measured cycles
// reported a run stopped in its first span as its throughput ± twice it.)
func TestStoppedRunThroughputBatches(t *testing.T) {
	cases := []struct {
		name     string
		window   int64   // configured measurement cycles
		measured int64   // cycles measured before the Finisher stopped the run
		spans    []int64 // cycles of each reached span that ran
	}{
		{"stopped in the first span", 1 << 40, 600, []int64{600}},
		{"stopped inside the third span", 800, 250, []int64{100, 100, 50}},
		{"spans of uneven length", 803, 302, []int64{101, 100, 101}},
		{"stopped on the last cycle", 800, 800, nil},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Topology = topology.Balanced(2)
		cfg.Mechanism, cfg.Pattern, cfg.Load = "MIN", "UN", 0.3
		cfg.WarmupCycles, cfg.MeasureCycles = 100, tc.window
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		stop := &finishingChurn{at: cfg.WarmupCycles + tc.measured - 1}
		if err := RunNetworkWithController(net, &cfg, stop); err != nil {
			t.Fatal(err)
		}
		res := newResult(net, &cfg, 0)
		if res.MeasuredCycles != tc.measured {
			t.Fatalf("%s: measured %d cycles, want %d", tc.name, res.MeasuredCycles, tc.measured)
		}
		batches, ci := res.ThroughputBatches(), res.ThroughputCI()
		if tc.spans == nil {
			// The run went the full distance: it reports what a run without a
			// Finisher does, eight spans of an eighth each.
			plain := runOn(t, core, cfg)
			if !slices.Equal(batches, plain.ThroughputBatches()) || ci != plain.ThroughputCI() || len(batches) != stats.Batches {
				t.Errorf("%s: batches %v, CI %+v; the unstopped run %v, %+v",
					tc.name, batches, ci, plain.ThroughputBatches(), plain.ThroughputCI())
			}
			continue
		}
		if len(batches) != len(tc.spans) {
			t.Fatalf("%s: %d batches %v, want the %d spans the run reached", tc.name, len(batches), batches, len(tc.spans))
		}
		nodes := float64(res.Nodes)
		var phits int64
		for i, b := range batches {
			want := float64(res.Total.BatchPhits[i]) / (nodes * float64(tc.spans[i]))
			if b != want {
				t.Errorf("%s: batch %d = %v, want %v (%d phits over %d cycles)", tc.name, i, b, want, res.Total.BatchPhits[i], tc.spans[i])
			}
			phits += res.Total.BatchPhits[i]
		}
		if phits != res.Total.DeliveredPhits || phits == 0 {
			t.Errorf("%s: the reached spans hold %d phits of %d delivered", tc.name, phits, res.Total.DeliveredPhits)
		}
		if len(tc.spans) < 2 {
			if !math.IsInf(ci.HalfCI95, 1) || ci.Mean != res.Throughput() {
				t.Errorf("%s: CI %v ± %v, want the throughput %v with no interval", tc.name, ci.Mean, ci.HalfCI95, res.Throughput())
			}
		} else if ci.HalfCI95 <= 0 || math.IsInf(ci.HalfCI95, 0) {
			t.Errorf("%s: CI half-width %v, want a finite interval over %d spans", tc.name, ci.HalfCI95, len(tc.spans))
		}
	}
}
