package sim

import (
	"testing"

	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// tenancyController changes tenancy only through the workload: at each
// scripted cycle it releases the running job (silencing its nodes) and
// places the next one (activating its nodes). It never tells the network
// which job a node belongs to — the network must follow the workload's own
// node→job map.
type tenancyController struct {
	wl      *workload.Workload
	at      []int64 // cycle at which job i is placed (and job i-1 released)
	running int     // index of the placed job, -1 before the first
}

func (c *tenancyController) NextEvent(now int64) int64 {
	for _, cyc := range c.at {
		if cyc > now {
			return cyc
		}
	}
	return -1
}

func (c *tenancyController) Apply(rc *Reconfig, now int64) {
	for j, cyc := range c.at {
		if cyc != now {
			continue
		}
		if c.running >= 0 {
			for _, n := range c.wl.JobNodes(c.running) {
				rc.SetNodeSilent(n)
			}
			c.wl.Release(c.running)
		}
		if err := c.wl.Place(j); err != nil {
			panic(err)
		}
		for _, n := range c.wl.JobNodes(j) {
			rc.SetNodeActive(n, c.wl.JobSpecOf(j).Load)
		}
		c.running = j
	}
}

// Per-job attribution follows Workload.Place/Release with no separate call
// into the network: job a runs first, then departs and job b recycles its
// routers. Both must book their traffic, and the per-job counters must
// partition the global ones.
func TestTenancyFollowsWorkload(t *testing.T) {
	cfg := small()
	cfg.Mechanism = "In-Trns-MM"
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1200
	for _, im := range []impl{core, oracle} {
		wl := workload.NewDynamic(topology.New(cfg.Topology), cfg.Seed)
		for _, js := range []workload.JobSpec{
			{Name: "a", Nodes: 16, Alloc: workload.AllocConsecutive, Load: 0.4},
			{Name: "b", Nodes: 16, Alloc: workload.AllocConsecutive, Load: 0.3},
		} {
			if _, err := wl.Admit(js); err != nil {
				t.Fatal(err)
			}
		}
		net, err := im.build(&cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := &tenancyController{wl: wl, at: []int64{100, 800}, running: -1}
		if err := im.drive(net, &cfg, ctrl); err != nil {
			t.Fatal(err)
		}
		res := NewResultFrom(net, &cfg, 0)

		var gen, inj, del int64
		for j := 0; j < res.NumJobs(); j++ {
			jt := res.JobTotal(j)
			if jt.Injected == 0 || jt.Delivered == 0 {
				t.Errorf("%s: job %s booked %+v — attribution did not follow the workload", im.name, res.JobNames[j], jt)
			}
			gen += jt.Generated
			inj += jt.Injected
			del += jt.Delivered
		}
		var injTotal int64
		for _, v := range res.Injections() {
			injTotal += v
		}
		if gen != res.Generated() || inj != injTotal || del != res.Delivered() {
			t.Errorf("%s: per-job generated/injected/delivered %d/%d/%d do not partition global %d/%d/%d",
				im.name, gen, inj, del, res.Generated(), injTotal, res.Delivered())
		}
	}
}
