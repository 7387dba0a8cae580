package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"dragonfly/internal/topology"
)

// Randomized cross-implementation state equivalence. The scheduler engines
// run the router core (flat arrays, in-ring link transport); the oracle
// (internal/refmodel) runs the seed's per-router structs and ring links on
// the dense engines. The per-router *results* being identical at the end
// of a run is a weak check — two implementations could diverge mid-run and
// reconverge. This test compares the full microarchitectural state
// (credits, occupancy, queue contents packet by packet, allocator and
// arbitration pointers — see Core.StateVector) after every prefix of a
// run, under mid-run job churn applied through the Reconfig point, for
// Workers 1, 2 and NumCPU. A checkpoint at cycle k runs fresh networks for
// k cycles on each side and compares.
//
// The CI race job runs this with -race, which turns the Workers>1
// checkpoints into a data-race probe of the shard partitioning.

// churnEvent is one scripted membership change.
type churnEvent struct {
	cycle int64
	node  int
	on    bool
	load  float64 // 0 inherits the run's configured load
}

// churnController replays a fixed event script through the Reconfig
// handle. It is a deterministic function of the script alone, so the same
// script yields bit-identical runs on every engine and worker count.
type churnController struct {
	events []churnEvent // sorted by cycle
}

func (c *churnController) NextEvent(now int64) int64 {
	for _, e := range c.events {
		if e.cycle > now {
			return e.cycle
		}
	}
	return -1
}

func (c *churnController) Apply(rc *Reconfig, now int64) {
	for _, e := range c.events {
		if e.cycle != now {
			continue
		}
		if e.on {
			rc.SetNodeActive(e.node, e.load)
		} else {
			rc.SetNodeSilent(e.node)
		}
	}
}

// statePropTrial is one randomized scenario: a mechanism/pattern/load draw
// plus a churn script.
type statePropTrial struct {
	mech   string
	pat    string
	load   float64
	warmup int64
	total  int64
	script []churnEvent
}

func randomTrial(rnd *rand.Rand, nodes int) statePropTrial {
	mechs := []string{"MIN", "Src-CRG", "In-Trns-MM"}
	pats := []string{"UN", "ADVc"}
	loads := []float64{0.15, 0.45, 0.8}
	tr := statePropTrial{
		mech:   mechs[rnd.Intn(len(mechs))],
		pat:    pats[rnd.Intn(len(pats))],
		load:   loads[rnd.Intn(len(loads))],
		warmup: 4,
		total:  int64(40 + rnd.Intn(41)), // 40..80 cycles
	}
	// A handful of membership flips spread over the run: silence some
	// nodes, re-activate others (sometimes at a different load), so the
	// reconfigured generation calendar, forced wakes and recycled
	// allocations are all live while the engines are being compared.
	for i, n := 0, 3+rnd.Intn(5); i < n; i++ {
		e := churnEvent{
			cycle: 1 + int64(rnd.Intn(int(tr.total)-1)),
			node:  rnd.Intn(nodes),
			on:    rnd.Intn(2) == 0,
		}
		if e.on && rnd.Intn(2) == 0 {
			e.load = 0.3
		}
		tr.script = append(tr.script, e)
	}
	return tr
}

func (tr statePropTrial) config(measure int64) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = tr.mech
	cfg.Pattern = tr.pat
	cfg.Load = tr.load
	cfg.WarmupCycles = tr.warmup
	cfg.MeasureCycles = measure
	cfg.Seed = 99
	return cfg
}

// runPrefix runs a fresh network for warmup+measure cycles on the given
// implementation and returns the per-router state vectors plus the result.
func (tr statePropTrial) runPrefix(t *testing.T, measure int64, workers int, im impl) ([][]int64, *Result) {
	t.Helper()
	cfg := tr.config(measure)
	cfg.Workers = workers
	net, err := im.build(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.drive(net, &cfg, &churnController{events: tr.script}); err != nil {
		t.Fatal(err)
	}
	return stateOf(net), newResult(net, &cfg, 0)
}

func TestStateEquivalenceUnderChurn(t *testing.T) {
	trials, stride := 4, 1
	if testing.Short() {
		trials, stride = 2, 7
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	rnd := rand.New(rand.NewSource(20260807))
	nodes := topology.New(topology.Balanced(2)).NumNodes()

	for trial := 0; trial < trials; trial++ {
		tr := randomTrial(rnd, nodes)
		t.Logf("trial %d: %s/%s load %.2f, %d cycles, %d churn events",
			trial, tr.mech, tr.pat, tr.load, tr.total, len(tr.script))
		for k := tr.warmup + 1; k <= tr.total; k += int64(stride) {
			measure := k - tr.warmup
			refState, refRes := tr.runPrefix(t, measure, 1, oracle)
			for _, w := range workerCounts {
				state, res := tr.runPrefix(t, measure, w, core)
				for r := range refState {
					if len(state[r]) != len(refState[r]) {
						t.Fatalf("trial %d cycle %d workers %d: router %d state length %d, reference %d",
							trial, k, w, r, len(state[r]), len(refState[r]))
					}
					for j := range refState[r] {
						if state[r][j] != refState[r][j] {
							t.Fatalf("trial %d cycle %d workers %d: router %d state word %d = %d, reference %d",
								trial, k, w, r, j, state[r][j], refState[r][j])
						}
					}
				}
				for r := range refRes.PerRouter {
					if res.PerRouter[r] != refRes.PerRouter[r] {
						t.Fatalf("trial %d cycle %d workers %d: router %d stats diverge",
							trial, k, w, r)
					}
				}
			}
		}
	}
}
