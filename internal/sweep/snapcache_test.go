package sweep

import (
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// The cache keeps one free list, not one per template: however many
// templates a sweep touches, a worker keeps restoring over the one network
// it retired last — across mechanisms whose networks differ in size — so a
// 13-template sweep on 2 workers allocates at most 2 networks and retains
// at most 2, and every sample is the cold run's, bit for bit.
func TestSnapshotCacheKeepsOneNetworkPerWorker(t *testing.T) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.WarmupCycles = 20
	base.MeasureCycles = 60
	grids := []Grid{
		{Base: base, Mechanisms: []string{"MIN", "In-Trns-MM", "Src-CRG"}, Patterns: []string{"UN", "ADVc"},
			Loads: []float64{0.2, 0.6}, Seeds: []uint64{1, 2}},
		{Base: base, Mechanisms: []string{"Obl-CRG"}, Patterns: []string{"UN"},
			Loads: []float64{0.2, 0.6}, Seeds: []uint64{1}},
	}
	const workers, templates = 2, 13

	cache := &SnapshotCache{Mode: ReuseConstruct}
	points := 0
	for _, g := range grids {
		cold := g
		cold.Workers = workers
		want := cold.Run(nil)

		g.Workers, g.Snapshots = workers, cache
		got := g.Run(nil)
		points += len(got)
		for i := range want {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("sample %d: errors %v / %v", i, got[i].Err, want[i].Err)
			}
			if got[i].Reuse != "construct" {
				t.Fatalf("sample %d ran with reuse %q", i, got[i].Reuse)
			}
			for r := range want[i].Result.PerRouter {
				if got[i].Result.PerRouter[r] != want[i].Result.PerRouter[r] {
					t.Fatalf("sample %d (%+v): router %d stats diverge from the cold run", i, got[i].Point, r)
				}
			}
		}
	}

	st := cache.Stats()
	if st.Templates != templates {
		t.Fatalf("built %d templates, want %d", st.Templates, templates)
	}
	if st.FreshRestores < 1 || st.FreshRestores > workers {
		t.Fatalf("%d allocating restores on %d workers", st.FreshRestores, workers)
	}
	if st.FreshRestores+st.RecycledRestores != points {
		t.Fatalf("%d fresh + %d recycled restores for %d points", st.FreshRestores, st.RecycledRestores, points)
	}
	if len(cache.free) != st.FreshRestores {
		t.Fatalf("cache retains %d networks after %d allocating restores", len(cache.free), st.FreshRestores)
	}
	if got := (*SnapshotCache)(nil).Stats(); got != (CacheStats{}) {
		t.Fatalf("nil cache reports %+v", got)
	}
}
