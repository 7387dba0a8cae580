package refmodel_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dragonfly/internal/refmodel"
	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// The oracle is held to itself. Every other cross-implementation test
// compares the oracle with router.Core, so the two could drift together
// unnoticed; these digests were recorded once, on the seed model, and a
// change of any of them means a statement a dense run executes was edited
// — which the freeze rule (see the package comment) forbids. Never
// re-record them to make a refmodel change pass.

// pinnedCfg is an h=2 run short enough for -short and long enough to fill
// buffers, misroute and return credits on every link class.
func pinnedCfg(mech, pattern string, load float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = mech
	cfg.Pattern = pattern
	cfg.Load = load
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 900
	cfg.Seed = 17
	return cfg
}

// pinnedDigest runs cfg on the oracle and folds every router's StateVector
// and the Result counters into one FNV-1a hash.
func pinnedDigest(t *testing.T, cfg sim.Config, wl *workload.Workload) (uint64, *sim.Result) {
	t.Helper()
	net, err := refmodel.NewNetwork(&cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := refmodel.RunWithController(net, &cfg, nil); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(xs ...int64) {
		_ = binary.Write(h, binary.LittleEndian, xs) // a hash.Hash never fails a Write
	}
	for _, r := range refmodel.Of(net).Routers {
		v := r.StateVector(nil)
		put(int64(len(v)))
		put(v...)
	}
	res := sim.NewResultFrom(net, &cfg, 0)
	if res.Delivered() == 0 {
		t.Fatal("pinned run delivered nothing")
	}
	put(res.Delivered(), res.Total.Injected, res.Backlogged(), res.Total.LatencySum)
	put(res.Injections()...)
	for j := 0; j < res.NumJobs(); j++ {
		jt := res.JobTotal(j)
		put(jt.Delivered, jt.LatencySum)
	}
	return h.Sum64(), res
}

func TestOraclePinned(t *testing.T) {
	transit := pinnedCfg("In-Trns-MM", "ADVc", 0.4)
	transit.Router.Arbitration = router.TransitOverInjection

	// Past saturation with a short source queue, so NoteBacklogged runs.
	skewPB := pinnedCfg("Src-CRG", "ADV+1", 0.8)
	skewPB.Router.InjectionQueuePackets = 8
	skewPB.LatencyModel = topology.GroupSkewLatency{Local: 3, GlobalBase: 11, GlobalStep: 2}

	// Two jobs at Workers=2: per-job attribution, and densePar wherever
	// the host has a second CPU (densePar is bit-identical to denseSeq, so
	// the literal holds on one CPU too).
	jobs := pinnedCfg("In-Trns-MM", "UN", 0.3)
	jobs.Workers = 2
	wl, err := workload.Compile(topology.New(jobs.Topology), workload.Spec{Jobs: []workload.JobSpec{
		{Name: "cons", Nodes: 24, Alloc: workload.AllocConsecutive, Pattern: "UN",
			Phase: workload.PhaseSpec{Kind: "bursty", Period: 200, Duty: 0.5}},
		{Name: "spread", Nodes: 24, Alloc: workload.AllocSpread, FirstGroup: 4, Load: 0.2,
			Phase: workload.PhaseSpec{Kind: "switch", Period: 150, Patterns: []string{"UN", "PERM"}}},
	}}, jobs.Seed)
	if err != nil {
		t.Fatal(err)
	}

	// One job past saturation with a short source queue: a workload draws
	// its destination before the backlog check, so backlogged attempts
	// still consume the node streams.
	hot := pinnedCfg("MIN", "UN", 0.9)
	hot.Router.InjectionQueuePackets = 8
	hotWL, err := workload.Compile(topology.New(hot.Topology), workload.Spec{Jobs: []workload.JobSpec{
		{Name: "hot", Nodes: 24, Alloc: workload.AllocConsecutive, Pattern: "UN"},
	}}, hot.Seed)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cfg  sim.Config
		wl   *workload.Workload
		want uint64
	}{
		{"MIN/UN@0.2", pinnedCfg("MIN", "UN", 0.2), nil, 0xbd52818e405cb530},
		{"In-Trns-MM/ADVc@0.4/transit", transit, nil, 0x8a3ae7bd378231fd},
		{"Src-CRG/ADV+1/groupskew", skewPB, nil, 0xdbcc132f5a2ddf83},
		{"two-jobs/workers=2", jobs, wl, 0xd56f409a44985640},
		{"workload/backlogged", hot, hotWL, 0x331c8116042626a6},
	} {
		got, res := pinnedDigest(t, tc.cfg, tc.wl)
		if got != tc.want {
			t.Errorf("%s: oracle digest %#016x, pinned %#016x", tc.name, got, tc.want)
		}
		// The short-queue rows are there for the backlog path: hold them to it.
		if tc.cfg.Router.InjectionQueuePackets == 8 && res.Backlogged() == 0 {
			t.Errorf("%s: no generation attempt was backlogged", tc.name)
		}
	}
}
