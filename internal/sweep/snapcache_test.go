package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// A grid point has one body — restore from the construction template, run,
// condense — and it is the cold run: a grid without a cache, a grid sharing
// one and sim.Run per point give the same Records, apart from the reuse tag
// and the wall and CPU times, at any worker count, under a per-link latency
// model and past saturation.
func TestGridRunMatchesColdRuns(t *testing.T) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.WarmupCycles, base.MeasureCycles = 200, 400
	lat, err := topology.LatencyModelByName("groupskew", 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	base.LatencyModel = lat
	g := Grid{Base: base, Mechanisms: []string{"MIN", "Src-CRG", "In-Trns-MM"}, Patterns: []string{"UN", "ADVc"},
		Loads: []float64{0.1, 0.4, 0.9}, Seeds: []uint64{1, 2}}

	// exact drops what two runs of one point may differ in.
	exact := func(rec Record) Record {
		rec.Reuse, rec.WallSeconds, rec.CPUSeconds = "", 0, 0
		return rec
	}
	pts := g.Points()
	want := make([]Record, len(pts))
	saturated := false
	for i, pt := range pts {
		cfg := g.Base
		cfg.Mechanism, cfg.Pattern, cfg.Load, cfg.Seed = pt.Mechanism, pt.Pattern, pt.Load, pt.Seed
		res, err := sim.Run(cfg)
		want[i] = exact(RecordOf("", Sample{Point: pt, Result: res, Err: err}))
		if want[i].Err != "" {
			t.Fatalf("%+v: %s", pt, want[i].Err)
		}
		saturated = saturated || want[i].Throughput < 0.5*pt.Load
	}
	if !saturated {
		t.Fatal("no point accepts less than half its offered load: the grid never saturates")
	}

	for _, workers := range []int{1, 2} {
		g.workers = workers
		cacheless := g.Run(nil)
		if g.Snapshots != nil {
			t.Fatal("Grid.Run wrote its cache into the caller's grid")
		}
		shared := g
		shared.Snapshots = &SnapshotCache{}
		for name, records := range map[string][]Record{"cache-less": cacheless, "shared cache": shared.Run(nil)} {
			for i, rec := range records {
				if rec.Reuse != "construct" {
					t.Fatalf("workers %d, %s: record %d ran with reuse %q", workers, name, i, rec.Reuse)
				}
				if got := exact(rec); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("workers %d, %s: %+v differs from sim.Run:\n got %+v\nwant %+v",
						workers, name, rec.Point, got, want[i])
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
	cache := &SnapshotCache{}
	var old *sim.Network
	restores := 0
	for _, lat := range []topology.LatencyModel{base.LatencyModel, skew} {
		for _, mech := range []string{"MIN", "In-Trns-MM", "Src-CRG"} {
			for _, pat := range []string{"UN", "ADVc"} {
				for _, seed := range []uint64{1, 2} {
					cfg := base
					cfg.LatencyModel, cfg.Mechanism, cfg.Pattern, cfg.Seed, cfg.Load = lat, mech, pat, seed, 0.8
					label := fmt.Sprintf("%s/%s seed %d lat %s", mech, pat, seed, sim.FamilyOf(&cfg))
					tcfg := cfg
					tcfg.Load = 0.3 // the template's load
					e, err := cache.snapshotFor(&tcfg)
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
					if d := fabricDiff(net.Fabric(), cold.Fabric(), len(cold.Routers)); d != "" {
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
// differ between two fabrics, or returns "". A state difference names the
// first differing word, as the core a names it.
func fabricDiff(a, b sim.Fabric, routers int) string {
	if a.InFlight() != b.InFlight() {
		return fmt.Sprintf("%d packets in flight, want %d", a.InFlight(), b.InFlight())
	}
	for r := range routers {
		if va, vb := a.StateVector(r, nil), b.StateVector(r, nil); !slices.Equal(va, vb) {
			i := 0
			for i < len(va) && i < len(vb) && va[i] == vb[i] {
				i++
			}
			return fmt.Sprintf("router %d %s", r, a.(*router.Core).StateWord(r, i))
		}
		if *a.Stats(r) != *b.Stats(r) {
			return fmt.Sprintf("router %d accumulators", r)
		}
	}
	return ""
}

// A process keeps one list of retired networks, not one per cache or
// template: however many caches and templates its sweeps touch, a worker
// keeps restoring over the network it retired last — across mechanisms
// whose networks differ in size — so two grids, each run cold on a cache of
// its own and again on a cache of its own, allocate at most one network per
// worker among them and retain exactly those. The second grid's caches
// allocate none, and every sample is the cold run's, bit for bit.
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
	const workers = 2
	templates := []int{12, 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0))))
	emptyRetired()

	fresh := 0
	for gi, g := range grids {
		cold := g
		cold.workers, cold.Snapshots = workers, &SnapshotCache{}
		want := runSamples(cold, nil)

		g.workers, g.Snapshots = workers, &SnapshotCache{}
		got := runSamples(g, nil)
		for i := range want {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("grid %d, sample %d: errors %v / %v", gi, i, got[i].Err, want[i].Err)
			}
			if got[i].Reuse != "construct" {
				t.Fatalf("grid %d, sample %d ran with reuse %q", gi, i, got[i].Reuse)
			}
			if !sameResult(got[i].Result, want[i].Result) {
				t.Fatalf("grid %d, sample %d (%+v): result diverges from the cold run", gi, i, got[i].Point)
			}
		}
		for _, c := range []*SnapshotCache{cold.Snapshots, g.Snapshots} {
			st := c.Stats()
			if st.Templates != templates[gi] {
				t.Fatalf("grid %d: a cache built %d templates, want %d", gi, st.Templates, templates[gi])
			}
			if st.FreshRestores+st.recycledRestores != len(got) {
				t.Fatalf("grid %d: %d fresh + %d recycled restores for %d points", gi, st.FreshRestores, st.recycledRestores, len(got))
			}
			fresh += st.FreshRestores
			if gi == 1 && st.FreshRestores != 0 {
				t.Fatalf("a cache of the second grid allocated %d networks; the first grid's retired ones were free", st.FreshRestores)
			}
		}
	}

	if fresh < 1 || fresh > workers {
		t.Fatalf("%d allocating restores on %d workers across four caches", fresh, workers)
	}
	if n := retiredLen(); n != fresh {
		t.Fatalf("the process retains %d networks after %d allocating restores", n, fresh)
	}
	if got := (*SnapshotCache)(nil).Stats(); got != (CacheStats{}) {
		t.Fatalf("nil cache reports %+v", got)
	}
}

// Networks retired by one cache serve the restores of another: after a
// grid at h=3 on one cache, a grid of other mechanisms and patterns at h=2
// on a second cache restores every point over a retired, larger network,
// and every sample is the cold run's, bit for bit.
func TestRetiredNetworksCrossCaches(t *testing.T) {
	base := sim.DefaultConfig()
	base.WarmupCycles, base.MeasureCycles = 20, 60
	first := Grid{Base: base, Mechanisms: []string{"MIN"}, Patterns: []string{"UN"},
		Loads: []float64{0.2, 0.6}, Seeds: []uint64{1}, workers: 2, Snapshots: &SnapshotCache{}}
	first.Base.Topology = topology.Balanced(3)
	second := Grid{Base: base, Mechanisms: []string{"In-Trns-MM", "Src-CRG"}, Patterns: []string{"ADVc"},
		Loads: []float64{0.2, 0.6}, Seeds: []uint64{1, 2}, workers: 1, Snapshots: &SnapshotCache{}}
	second.Base.Topology = topology.Balanced(2)

	emptyRetired()
	for _, rec := range first.Run(nil) {
		if rec.Err != "" {
			t.Fatalf("h=3 %+v: %s", rec.Point, rec.Err)
		}
	}
	if retiredLen() == 0 {
		t.Fatal("the h=3 grid retired no network")
	}
	checkCold(t, second, runSamples(second, nil))
	if st := second.Snapshots.Stats(); st.FreshRestores != 0 || st.recycledRestores != 8 {
		t.Fatalf("the second cache made %d fresh + %d recycled restores, want 0 + 8", st.FreshRestores, st.recycledRestores)
	}
}

// Four caches on four goroutines share the process's retired networks over
// the shared pool, and the list never holds more than GOMAXPROCS of them,
// though more runs than that are in flight at once.
func TestRetiredNetworksCrossCachesConcurrent(t *testing.T) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(2)
	base.WarmupCycles, base.MeasureCycles = 100, 700 // long enough to be preempted mid-run
	mechs := []string{"MIN", "In-Trns-MM", "Src-CRG", "Obl-CRG"}
	limit := runtime.GOMAXPROCS(0)
	var over atomic.Int64
	watch := func() {
		if n := retiredLen(); n > limit {
			over.Store(int64(n))
		}
	}

	emptyRetired()
	grids := make([]Grid, len(mechs))
	samples := make([][]Sample, len(mechs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, mech := range mechs {
		grids[i] = Grid{Base: base, Mechanisms: []string{mech}, Patterns: []string{"UN", "ADVc"},
			Loads: []float64{0.2, 0.6}, Seeds: []uint64{1}, workers: 2, Snapshots: &SnapshotCache{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			samples[i] = runSamples(grids[i], watch)
		}()
	}
	close(start)
	wg.Wait()
	if n := over.Load(); n != 0 {
		t.Fatalf("the retired list held %d networks, more than GOMAXPROCS (%d)", n, limit)
	}
	if n := retiredLen(); n > limit {
		t.Fatalf("the process retains %d networks, more than GOMAXPROCS (%d)", n, limit)
	}
	for i, g := range grids {
		checkCold(t, g, samples[i])
	}
}

// checkCold fails unless every sample of the grid equals its point's cold
// sim.Run.
func checkCold(t *testing.T, g Grid, samples []Sample) {
	t.Helper()
	for i, pt := range g.Points() {
		cfg := g.Base
		cfg.Mechanism, cfg.Pattern, cfg.Load, cfg.Seed = pt.Mechanism, pt.Pattern, pt.Load, pt.Seed
		want, err := sim.Run(cfg)
		if err != nil || samples[i].Err != nil {
			t.Fatalf("%+v: errors %v / %v", pt, samples[i].Err, err)
		}
		if !sameResult(samples[i].Result, want) {
			t.Fatalf("%+v: the restore diverges from the cold run", pt)
		}
	}
}

// The allocation gate of the shared retired list: once one cache has
// retired an h=3 network, a second cache's first Run allocates less than a
// tenth of what NewNetwork does, because it restores over that network
// instead of allocating its own. The second cache's template is built
// before the metering starts; it is the same 55 KB either way.
func TestRestoreAfterAnotherCacheAllocatesNoCore(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism, cfg.Pattern, cfg.Load = "In-Trns-MM", "ADVc", 0.4
	cfg.WarmupCycles, cfg.MeasureCycles = 20, 60

	emptyRetired()
	if _, err := (&SnapshotCache{}).run(cfg); err != nil {
		t.Fatal(err)
	}
	build := allocated(func() {
		if _, err := sim.NewNetwork(&cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	second := &SnapshotCache{}
	if _, err := second.snapshotFor(&cfg); err != nil {
		t.Fatal(err)
	}
	first := allocated(func() {
		if _, err := second.run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("h=3: NewNetwork %d B, a second cache's first Run %d B (%.1f %%)", build, first, 100*float64(first)/float64(build))
	if st := second.Stats(); st.FreshRestores != 0 {
		t.Fatalf("the second cache allocated %d networks", st.FreshRestores)
	}
	if first*10 >= build {
		t.Fatalf("a second cache's first Run allocates %d B, want less than a tenth of NewNetwork's %d B", first, build)
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
