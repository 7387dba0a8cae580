package sweep

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// A grid point has one body — restore from the construction template, run,
// condense — and it is the cold run: a grid without a cache, a grid sharing
// one and sim.Run per point give the same Records, apart from the reuse tag
// and the wall time, at any worker count, under a per-link latency model and
// past saturation.
func TestGridRunMatchesColdRuns(t *testing.T) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.WarmupCycles, base.MeasureCycles = 200, 400
	base.Router.LocalLatency, base.Router.GlobalLatency = 5, 25
	lat, err := topology.LatencyModelByName("groupskew", 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	base.LatencyModel = lat
	g := Grid{Base: base, Mechanisms: []string{"MIN", "Src-CRG", "In-Trns-MM"}, Patterns: []string{"UN", "ADVc"},
		Loads: []float64{0.1, 0.4, 0.9}, Seeds: []uint64{1, 2}}

	// exact drops what two runs of one point may differ in.
	exact := func(s Sample) Record {
		rec := RecordOf("", s)
		rec.Reuse, rec.WallSeconds = "", 0
		return rec
	}
	pts := g.Points()
	want := make([]Record, len(pts))
	saturated := false
	for i, pt := range pts {
		cfg := g.Base
		cfg.Mechanism, cfg.Pattern, cfg.Load, cfg.Seed = pt.Mechanism, pt.Pattern, pt.Load, pt.Seed
		res, err := sim.Run(cfg)
		want[i] = exact(Sample{Point: pt, Result: res, Err: err})
		if want[i].Err != "" {
			t.Fatalf("%+v: %s", pt, want[i].Err)
		}
		saturated = saturated || want[i].Throughput < 0.5*pt.Load
	}
	if !saturated {
		t.Fatal("no point accepts less than half its offered load: the grid never saturates")
	}

	for _, workers := range []int{1, 2} {
		g.Workers = workers
		cacheless := g.Run(nil)
		if g.Snapshots != nil {
			t.Fatal("Grid.Run wrote its cache into the caller's grid")
		}
		shared := g
		shared.Snapshots = &SnapshotCache{}
		for name, samples := range map[string][]Sample{"cache-less": cacheless, "shared cache": shared.Run(nil)} {
			for i, s := range samples {
				if s.Reuse != "construct" {
					t.Fatalf("workers %d, %s: sample %d ran with reuse %q", workers, name, i, s.Reuse)
				}
				if got := exact(s); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("workers %d, %s: %+v differs from sim.Run:\n got %+v\nwant %+v",
						workers, name, s.Point, got, want[i])
				}
			}
		}
	}
}

// The construction templates of one family (topology, latency model, seed)
// share its wiring and RNG streams, and borrowing them changes nothing: in
// one cache holding three mechanisms × two patterns × two seeds × two
// latency models, each family's first template is built in full, every
// other template borrows from the first of its own family only — never
// across seeds or latency models — and every restore, recycled over a
// network of another template and aimed at a load other than its
// template's, runs exactly as a cold NewNetwork: full state vectors, every
// router's accumulators and the packets in flight.
func TestSnapshotCacheFamiliesBitIdentical(t *testing.T) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.WarmupCycles, base.MeasureCycles = 10, 70
	skew, err := topology.LatencyModelByName("groupskew", 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	const templateLoad = 0.3
	cache := &SnapshotCache{Mode: ReuseConstruct}
	var old *sim.Network
	restores := 0
	for _, lat := range []topology.LatencyModel{nil, skew} {
		for _, mech := range []string{"MIN", "In-Trns-MM", "Src-CRG"} {
			for _, pat := range []string{"UN", "ADVc"} {
				for _, seed := range []uint64{1, 2} {
					cfg := base
					cfg.LatencyModel, cfg.Mechanism, cfg.Pattern, cfg.Seed, cfg.Load = lat, mech, pat, seed, 0.8
					label := fmt.Sprintf("%s/%s seed %d lat %s", mech, pat, seed, sim.FamilyOf(&cfg))
					e, err := cache.snapshotFor(&cfg, templateLoad)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if e.family != nil && sim.FamilyOf(&e.family.cfg) != sim.FamilyOf(&cfg) {
						t.Fatalf("%s borrows from the family %s", label, sim.FamilyOf(&e.family.cfg))
					}
					net, err := sim.RestoreNetworkInto(e.snap, &cfg, old)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := sim.NewNetwork(&cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range []*sim.Network{net, cold} {
						if err := sim.RunNetwork(n, &cfg); err != nil {
							t.Fatal(err)
						}
					}
					if d := fabricDiff(net.Fabric(), cold.Fabric(), cold.Topo.NumRouters()); d != "" {
						t.Fatalf("%s: the restore diverges from the cold build: %s", label, d)
					}
					if net.InFlight() == 0 {
						t.Fatalf("%s: nothing in flight at the end: the run exercises too little", label)
					}
					old = net
					restores++
				}
			}
		}
	}
	heads := 0
	for _, e := range cache.entries {
		if e.family == nil {
			heads++
		}
	}
	if st := cache.Stats(); st.Templates != restores || heads != 4 {
		t.Fatalf("%d templates for %d restores, %d of them built in full; want one per restore and one per family (4)",
			st.Templates, restores, heads)
	}
}

// fabricDiff names the first router whose state vector or accumulators
// differ between two fabrics, or returns "".
func fabricDiff(a, b sim.Fabric, routers int) string {
	if a.InFlight() != b.InFlight() {
		return fmt.Sprintf("%d packets in flight, want %d", a.InFlight(), b.InFlight())
	}
	for r := range routers {
		if !slices.Equal(a.StateVector(r, nil), b.StateVector(r, nil)) {
			return fmt.Sprintf("router %d state vector", r)
		}
		if *a.Stats(r) != *b.Stats(r) {
			return fmt.Sprintf("router %d accumulators", r)
		}
	}
	return ""
}

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
			if !sameResult(got[i].Result, want[i].Result) {
				t.Fatalf("sample %d (%+v): result diverges from the cold run", i, got[i].Point)
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
