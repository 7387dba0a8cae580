package scheduler

import (
	"fmt"
	"math"
	"time"

	"dragonfly/internal/sim"
	"dragonfly/internal/workload"
)

// The scheduler's one event loop. A controller owns everything that happens
// at a scheduler event — departures, arrivals, the discipline's decision,
// placement, queue compaction — and knows neither where its jobs come from
// nor what the run keeps of them: a source feeds it the trace and a sink
// receives each job's lifecycle. Run and RunGenerated differ only in the
// source and sink they plug in.

// reconfigurator is the slice of *sim.Reconfig the controller actually
// uses. Taking the interface instead of the concrete handle lets the EASY
// oracle test dry-run the exact production controller — same Apply path,
// same planStarts decisions, either source — against a fake that records
// node activity without building a network.
type reconfigurator interface {
	SetNodeActive(node int, load float64)
	SetNodeSilent(node int)
	LiveJobDelivered(job int, routers []int) int64
}

// source is a trace as the event loop sees it: jobs 0..Len()-1 in arrival
// order. The loop asks for a job's arrival and demand when it reaches the
// queue and for its workload index when it is placed, once each.
type source interface {
	Len() int
	// arrival is nondecreasing in i.
	arrival(i int) int64
	// demand returns the routers job i occupies and its budget: cycles ≥ 0
	// (it departs that long after its start; -1: unknown to the
	// disciplines) or packets > 0 (it departs once it has delivered that
	// many); a job with neither runs until the simulation ends.
	demand(i int) (need int, cycles, packets int64)
	// admit returns job i's index in the controller's workload, admitting
	// it first if the source did not do so up front.
	admit(i int) int
}

// sink receives the lifecycle of trace job i (workload index j): what a run
// keeps of its jobs is whatever its sink stores.
type sink interface {
	started(i, j int, now int64)
	departed(i, j int, start, now int64)
}

// runJob is one running job — the only per-job state the loop itself holds,
// dropped at departure.
type runJob struct {
	rJob           // router occupancy and departure cycle, as the disciplines see it
	idx, wlJob int // trace and workload index
	start      int64
	packets    int64 // > 0: departs once it has delivered this many
	nodes      []int // activated node ids: the workload's own slice, lent until Retire
	routers    []int // a packet-target job's allocation, for polling its counter
}

// controller is the sim.Controller (and sim.finisher) that schedules a
// source's jobs under a discipline. It runs only between cycles, and all
// its decisions are deterministic functions of the cycle and of per-job
// delivered counters read at cycle boundaries, so a trace replays
// bit-identically on every engine.
type controller struct {
	wl   *workload.Workload
	src  source
	out  sink
	disc string
	// lazy is the admission mode, which goes with the workload's kind. An
	// eager source registered every job with a named workload before the
	// run: the network attributes traffic per job (it reads the workload's
	// own node→job map, which Place and Release write), job state stays
	// readable for reports and the run lasts its configured window. A lazy
	// source admits at placement, into a streaming workload: a departed job
	// is retired, and the run ends when the trace has drained.
	lazy bool

	nextArr int      // next source index not yet arrived
	queue   []qJob   // arrived, waiting; in arrival order
	running []runJob // placed, not departed; in placement order

	// Decision scratch, reused across events.
	rView []rJob
	plan  planScratch

	peakQueue, peakRunning int
}

// NextEvent implements sim.Controller: the earliest future cycle with
// scheduler work — the next arrival, the next known (cycle-budget)
// departure, or the next cycle when any packet-target job is running and
// its counter must be polled. Queue movement happens only at those cycles,
// because capacity changes only at departures and demand only at arrivals.
func (c *controller) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	if c.nextArr < c.src.Len() {
		next = c.src.arrival(c.nextArr)
	}
	for i := range c.running {
		if r := &c.running[i]; r.end >= 0 {
			next = min(next, r.end)
		} else if r.packets > 0 {
			next = min(next, now+1)
		}
	}
	if next == math.MaxInt64 {
		return -1
	}
	return max(next, now+1)
}

// drained reports that every job has arrived, started and departed.
func (c *controller) drained() bool {
	return c.nextArr >= c.src.Len() && len(c.queue) == 0 && len(c.running) == 0
}

// Finished implements sim.finisher for lazy sources, whose horizon is a cap
// and not the run length. drained changes only inside Apply, so it can
// first turn true only at a NextEvent cycle, as the contract requires. An
// eager source's run is a measurement window and never finishes early.
func (c *controller) Finished(int64) bool { return c.lazy && c.drained() }

// Apply implements sim.Controller by delegating to the reconfigurator-typed
// apply, the path the oracle test dry-runs.
func (c *controller) Apply(rc *sim.Reconfig, now int64) { c.apply(rc, now) }

// apply processes one scheduler event: departures first (so a same-cycle
// arrival can recycle the freed allocation), then arrivals, then placement
// under the discipline via planStarts. It allocates nothing once its
// scratch has grown to the run's peak queue and running set.
func (c *controller) apply(rc reconfigurator, now int64) {
	for i := 0; i < len(c.running); {
		r := &c.running[i]
		done := r.end >= 0 && now >= r.end
		if !done && r.packets > 0 {
			done = rc.LiveJobDelivered(r.wlJob, r.routers) >= r.packets
		}
		if !done {
			i++
			continue
		}
		c.depart(rc, r, now)
		c.running = append(c.running[:i], c.running[i+1:]...)
	}
	for n := c.src.Len(); c.nextArr < n && c.src.arrival(c.nextArr) <= now; c.nextArr++ {
		need, cycles, packets := c.src.demand(c.nextArr)
		c.queue = append(c.queue, qJob{need: need, dur: cycles, idx: c.nextArr, packets: packets})
	}
	c.peakQueue = max(c.peakQueue, len(c.queue))
	if len(c.queue) == 0 {
		return
	}
	c.rView = c.rView[:0]
	for i := range c.running {
		c.rView = append(c.rView, c.running[i].rJob)
	}
	picks := c.plan.planStarts(c.disc, now, c.wl.FreeRouters(), c.queue, c.rView)
	if len(picks) == 0 {
		return
	}
	// Place in ascending queue order — the order planStarts returns — so
	// the allocation RNG stream is the one a scan of the queue consumes,
	// closing the queue up behind the placed jobs in the same pass.
	kept := c.queue[:0]
	for i, q := range c.queue {
		if len(picks) > 0 && picks[0] == i {
			picks = picks[1:]
			c.place(rc, q, now)
			continue
		}
		kept = append(kept, q)
	}
	c.queue = kept
	c.peakRunning = max(c.peakRunning, len(c.running))
}

// place admits (if the source has not yet), allocates and activates queued
// job q at cycle now. planStarts only picks jobs that fit and the source
// validated every spec, so neither step can fail here.
func (c *controller) place(rc reconfigurator, q qJob, now int64) {
	j := c.src.admit(q.idx)
	if err := c.wl.Place(j); err != nil {
		panic(fmt.Sprintf("scheduler: placing admitted job that fits: %v", err))
	}
	r := runJob{
		rJob:    rJob{need: q.need, end: -1},
		idx:     q.idx,
		wlJob:   j,
		start:   now,
		packets: q.packets,
		nodes:   c.wl.JobNodes(j),
	}
	if q.dur >= 0 {
		r.end = now + q.dur
	}
	if q.packets > 0 {
		r.routers = c.wl.JobRouters(j)
	}
	load := c.wl.JobSpecOf(j).Load
	for _, n := range r.nodes {
		rc.SetNodeActive(n, load)
	}
	c.running = append(c.running, r)
	c.out.started(q.idx, j, now)
}

// depart silences running job r's nodes and releases its allocation — and,
// under a lazy source, retires its workload state — then reports it.
func (c *controller) depart(rc reconfigurator, r *runJob, now int64) {
	for _, n := range r.nodes {
		rc.SetNodeSilent(n)
	}
	c.wl.Release(r.wlJob)
	if c.lazy {
		c.wl.Retire(r.wlJob)
	}
	c.out.departed(r.idx, r.wlJob, r.start, now)
}

// simImpl is how a run builds and drives its network. Production is
// coreImpl; the equivalence tests substitute the dense oracle's pair, and
// tests that probe a run wrap drive to reach its controller.
type simImpl struct {
	build func(*sim.Config, *workload.Workload) (*sim.Network, error)
	drive func(*sim.Network, *sim.Config, sim.Controller) error
}

var coreImpl = simImpl{sim.NewNetwork, sim.RunNetworkWithController}

// simulate is the tail every run shares: build the network over the
// controller's workload, drive it under the controller, extract the
// network-level result.
func (c *controller) simulate(cfg *sim.Config, im simImpl) (*sim.Network, *sim.Result, error) {
	net, err := im.build(cfg, c.wl)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := im.drive(net, cfg, c); err != nil {
		return nil, nil, err
	}
	return net, sim.NewResultFrom(net, cfg, time.Since(start)), nil
}
