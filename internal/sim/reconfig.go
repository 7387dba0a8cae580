package sim

import "math"

// The safe reconfiguration point. A Controller changes which nodes generate
// traffic while a simulation runs, which is what a dynamic job scheduler
// needs: jobs arrive, depart, and freed allocations are recycled mid-run.
// Which job a node belongs to is not the controller's to set here: the
// network borrows the workload's node→job map (workload.Workload.NodeJobs),
// so a workload that places or releases a job during Apply has already
// retargeted attribution. Only packets generated after the change carry the
// new job — in-flight packets keep the job stamped at their generation, so a
// recycled node never miscounts the previous tenant's traffic.
//
// Correctness rests on *when* the controller runs, not on what it changes:
// Apply executes only between time windows, on the coordinator, with every
// engine worker quiescent and every group standing at the same cycle — the
// driver cuts the window at the controller's next event, so an event never
// falls inside one. All engines — one worker or many, scheduler and dense
// reference — call the controller at exactly the same cycles with exactly
// the same pre-cycle network state, so a run with mid-run reconfiguration
// stays bit-identical across engines and worker counts for the same reason
// a static run does. Activating a node consumes only that
// node's own RNG stream (its first Bernoulli arrival draw), exactly the
// draw network construction would have consumed had the node been active
// from the start — which is why a trace whose jobs all arrive at cycle 0
// and never depart reproduces the static workload run bit for bit.
//
// After Apply, the driver refreshes the generation calendar of every router
// the controller touched and tells the engine that it changed (Engine.Wake).
// That is all an event means to a router: when it generates next. The
// production engine lowers the router's wake-up to its next arrival and does
// not step it at the event cycle; a node that fell silent leaves its router
// with a wake-up that is merely too early, which costs one step that finds
// nothing to do — the same argument that makes skipping a sleeping router
// safe.

// Controller drives mid-run traffic reconfiguration. Implementations must
// be deterministic functions of the network state observable at cycle
// boundaries (the scheduler's queueing state, per-job live delivered
// counters), or cross-engine bit-identity is lost.
type Controller interface {
	// NextEvent returns the next cycle strictly greater than now at which
	// Apply must run, or -1 for never again. It is called once with -1
	// before the first cycle and after every Apply. The answer is binding:
	// the engine runs the cycles up to it without consulting the controller
	// — Finished included, see Finisher — (they are the time window it
	// advances group by group), so a controller that has to poll returns
	// now+1.
	NextEvent(now int64) int64
	// Apply runs at the start of cycle now, before generation and routing,
	// with all engine workers quiescent. It mutates membership only through
	// the Reconfig handle, and what it may read of the network is what the
	// handle offers (LiveJobDelivered): router state proper is not settled
	// at this point (see settler).
	Apply(rc *Reconfig, now int64)
}

// finisher is an optional Controller extension for runs whose length is a
// property of the workload rather than the Config: the run stops after the
// first cycle for which Finished reports true. Finished may first turn true
// only at a cycle the controller named through NextEvent: the driver asks
// it right after Apply(now) — and at no other cycle — and a true answer
// makes cycle now the run's last. A controller that finishes on anything
// but its own events (a bare cycle number, a delivery count it does not
// poll with NextEvent = now+1) is never asked at that cycle. In exchange a
// finisher costs no window: between its events the engine advances a
// global-link latency at a time, as under any Controller (Network.
// EngineWindows shows it). The question is put at the same point for every
// engine — after Apply, workers quiescent — and the answer must be a
// deterministic function of the controller's own state and cycle-boundary
// network state, so early-stopped runs remain bit-identical across engines
// and worker counts. The Result of an early-stopped run reports the cycles
// actually measured (see Result.MeasuredCycles), not the configured
// horizon.
type finisher interface {
	// Finished reports, right after Apply(now), whether cycle now is the
	// workload's last.
	Finished(now int64) bool
}

// Reconfig is the mutation handle a Controller receives. It records which
// routers were touched so the driver can refresh their generation calendars
// and report them to the engine.
type Reconfig struct {
	net     *Network
	now     int64
	touched []bool
	list    []int
}

func (rc *Reconfig) touch(router int) {
	if !rc.touched[router] {
		rc.touched[router] = true
		rc.list = append(rc.list, router)
	}
}

// SetNodeActive starts (or re-starts) traffic generation at a node. load is
// the node's offered load in phits/(node·cycle); 0 inherits the run's
// configured load. The node's first arrival is sampled from its own RNG
// stream exactly as network construction samples it, so activating at cycle
// 0 is indistinguishable from having been active at build time.
func (rc *Reconfig) SetNodeActive(node int, load float64) {
	net := rc.net
	ns := &net.nodes[node]
	q := net.genProb
	if load > 0 {
		q = load / float64(net.rcfg.PacketSize)
	}
	ns.q = q
	ns.active = q > 0
	rc.touch(net.topo.NodeRouter(node))
	if !ns.active {
		return
	}
	if q < 1 {
		ns.logOneMinusQ = math.Log(1 - q)
	}
	ns.nextGen = ns.nextArrival(rc.now-1, q)
}

// SetNodeSilent stops traffic generation at a node (a departing job's nodes
// fall silent; packets already generated keep flowing and deliver normally).
func (rc *Reconfig) SetNodeSilent(node int) {
	net := rc.net
	net.nodes[node].active = false
	rc.touch(net.topo.NodeRouter(node))
}

// LiveJobDelivered exposes Network.LiveJobDelivered to the controller: job
// j's whole-run delivered packets summed over the given routers (nil: all).
func (rc *Reconfig) LiveJobDelivered(job int, routers []int) int64 {
	return rc.net.LiveJobDelivered(job, routers)
}

// reconfigRun is the per-run controller driver: it asks the controller for
// its event cycles and runs Apply between windows, then refreshes the
// generation calendars of touched routers and reports them to the engine's
// wake callback (Engine.Wake). A nil *reconfigRun is inert, so the driver
// calls step unconditionally.
type reconfigRun struct {
	ctrl Controller
	rc   Reconfig
	next int64
}

func newReconfigRun(net *Network, ctrl Controller) *reconfigRun {
	if ctrl == nil {
		return nil
	}
	return &reconfigRun{
		ctrl: ctrl,
		rc:   Reconfig{net: net, touched: make([]bool, net.topo.NumRouters())},
		next: ctrl.NextEvent(-1),
	}
}

// step runs the controller if an event is due at cycle now and reports
// whether it did. It must be called at the top of every window, before
// generation, with workers quiescent; the driver ends the window no later
// than r.next.
func (r *reconfigRun) step(now int64, wake func(router int)) bool {
	if r == nil || r.next < 0 || r.next > now {
		return false
	}
	r.rc.now = now
	r.ctrl.Apply(&r.rc, now)
	r.next = r.ctrl.NextEvent(now)
	if r.next >= 0 && r.next <= now {
		panic("sim: Controller.NextEvent returned a cycle not after now")
	}
	for _, router := range r.rc.list {
		r.rc.net.refreshGenWake(router)
		wake(router)
		r.rc.touched[router] = false
	}
	r.rc.list = r.rc.list[:0]
	return true
}
