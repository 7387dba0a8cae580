package refmodel

import (
	"fmt"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
)

// vcQueue is a FIFO of packets with phit-based occupancy accounting.
type vcQueue struct {
	pkts []*packet.Packet
	head int
	occ  int
	cap  int
}

func (q *vcQueue) len() int { return len(q.pkts) - q.head }

func (q *vcQueue) front() *packet.Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	return q.pkts[q.head]
}

func (q *vcQueue) push(p *packet.Packet) {
	q.pkts = append(q.pkts, p)
	q.occ += int(p.Size)
}

func (q *vcQueue) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.occ -= int(p.Size)
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		for i := n; i < len(q.pkts); i++ {
			q.pkts[i] = nil
		}
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	return p
}

// pendingTransfer tracks the single crossbar transfer in progress at an
// input port.
type pendingTransfer struct {
	active  bool
	done    int64
	vcIdx   int
	outPort int
	outVC   int
	action  packet.Action
}

type inputPort struct {
	// Hot fields first: the allocator's gather loop reads busyUntil, rrVC,
	// qTotal and the vcs header every cycle the router is stepped.
	busyUntil int64
	rrVC      int
	qTotal    int // packets across all VC queues; 0 lets stages skip the port
	class     topology.PortClass
	vcs       []vcQueue
	link      *RingLink // nil for injection ports
	pending   pendingTransfer
}

type outputPort struct {
	// Hot scalars first: every stepped cycle reads linkBusyUntil and the
	// release fields (link stage, credit stage) and the allocator probes
	// crossbarBusyUntil; keeping them on the leading cache line matters.
	linkBusyUntil     int64
	crossbarBusyUntil int64
	releaseAt         int64
	releasePhits      int
	releaseVC         int
	occ               int
	capVC             int // buffer capacity per VC
	qTotal            int // packets across all VC queues; 0 skips the port

	class topology.PortClass

	// Per-VC output queues: a packet waiting for credits on one VC must
	// not block packets of other VCs, or cyclic head-of-line dependencies
	// around the group ring would deadlock the network under adversarial
	// traffic. occ counts reserved phits across all VCs (including
	// in-flight crossbar transfers); occVC per queue.
	queues [][]*packet.Packet
	qheads []int
	occVC  []int

	credits     []int // free phits per downstream VC; nil for ejection
	creditsFree int   // sum of credits
	downTotal   int   // total downstream capacity
	downCapVC   int   // downstream capacity per VC (0 for ejection)
	thresholdVC int   // per-VC congestion threshold in phits

	link *RingLink // nil for ejection ports
	rr   int       // round-robin arbitration pointer (input port index)
	rrVC int       // round-robin pointer of the link VC arbiter
}

// used estimates the phits queued at this output: local buffer plus
// downstream phits whose credits have not returned.
func (o *outputPort) used() int { return o.occ + o.downTotal - o.creditsFree }

// queueLen returns the number of packets waiting in VC queue vc.
func (o *outputPort) queueLen(vc int) int { return len(o.queues[vc]) - o.qheads[vc] }

// queueFront returns the head packet of VC queue vc, or nil.
func (o *outputPort) queueFront(vc int) *packet.Packet {
	if o.qheads[vc] >= len(o.queues[vc]) {
		return nil
	}
	return o.queues[vc][o.qheads[vc]]
}

// queuePop removes and returns the head packet of VC queue vc.
func (o *outputPort) queuePop(vc int) *packet.Packet {
	h := o.qheads[vc]
	p := o.queues[vc][h]
	o.queues[vc][h] = nil
	o.qheads[vc] = h + 1
	if o.qheads[vc] == len(o.queues[vc]) {
		o.queues[vc] = o.queues[vc][:0]
		o.qheads[vc] = 0
	}
	o.qTotal--
	return p
}

// portDue is one entry of a due-queue: an event falling due at a port.
type portDue struct {
	at   int64
	port int32
}

// dueQueue is a time-sorted FIFO of pending port events with head
// compaction.
type dueQueue struct {
	q    []portDue
	head int
}

func (d *dueQueue) empty() bool { return d.head >= len(d.q) }

// insert places an event keeping the queue sorted by time; events are
// near-future, so bubbling from the tail is effectively O(1).
func (d *dueQueue) insert(at int64, port int32) {
	d.q = append(d.q, portDue{at: at, port: port})
	for i := len(d.q) - 1; i > d.head && d.q[i-1].at > at; i-- {
		d.q[i], d.q[i-1] = d.q[i-1], d.q[i]
	}
}

// pop removes and returns the head entry. The consumed prefix is
// compacted away once it dominates the slice, so a queue that never
// fully drains (steady traffic always has a future entry pending) still
// stays O(pending) instead of growing with simulated cycles.
func (d *dueQueue) pop() portDue {
	e := d.q[d.head]
	d.head++
	if d.head == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	} else if d.head > 64 && d.head*2 > len(d.q) {
		n := copy(d.q, d.q[d.head:])
		d.q = d.q[:n]
		d.head = 0
	}
	return e
}

// candidate is one (input, VC) switch request.
type candidate struct {
	vcIdx int
	req   routing.Request
}

// candRef points at the exact candidate an input proposed to an output.
type candRef struct {
	in      int
	candIdx int
}

// Router is one Dragonfly router. It is single-threaded: the engine steps
// each router exactly once per cycle; concurrent steps of different routers
// are safe because all shared state lives in Links.
type Router struct {
	id   int
	topo *topology.Topology
	cfg  *router.Config
	mech routing.Mechanism
	env  *routing.Env
	rnd  *rng.Source

	inputs  []inputPort
	outputs []outputPort

	measuring bool
	batch     int // current batch-means span of the measurement window
	stats     stats.Router

	// Per-job attribution (multi-job workloads). nodeJob maps every node of
	// the network to a job index (-1: unallocated) and attributes events
	// that have no packet yet (backlogged generation attempts); everything
	// packet-borne is attributed by the job index stamped into the packet
	// at generation, so a node freed and recycled to another job mid-run
	// never miscounts in-flight traffic. jobStats accumulates this router's
	// share of each job's measurement-window counters; jobLive counts
	// delivered packets per job over the whole run (warm-up included) for
	// the dynamic scheduler's packet-target completions. All are nil for
	// single-workload runs, keeping the hot path untouched.
	nodeJob  []int32
	jobStats []stats.Job
	jobLive  []int64

	// Router-local calendars of output buffer releases and crossbar
	// transfer completions, so the stages touch only the ports that are due.
	relDue  dueQueue
	xferDue dueQueue

	recycle func(*packet.Packet)
	// deliverHook, when set, observes every delivered packet before it
	// is recycled. Used by tests and the engine's sampling machinery.
	deliverHook func(*packet.Packet)
	// trace, when set, observes grants, link sends and deliveries.
	trace router.TraceFn

	// scratch buffers reused across cycles. cands[p] and granted[p] are
	// only meaningful for p ∈ candIn (the inputs that proposed candidates
	// in the current cycle); outCand[p] is cleared after every allocator
	// iteration via outTouched. Keeping these sparse avoids resetting
	// every port every cycle.
	cands      [][]candidate // per input port
	outCand    [][]candRef   // per output port: submitted requests
	granted    []bool        // per input port, this cycle
	candIn     []int         // inputs with candidates this cycle
	outTouched []int         // outputs with submissions this iteration
}

// New constructs a router. Links must be attached with ConnectIn/ConnectOut
// before the first Step.
func New(id int, topo *topology.Topology, cfg *router.Config, mech routing.Mechanism, env *routing.Env, rnd *rng.Source, recycle func(*packet.Packet)) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := topo.NumPorts()
	r := &Router{
		id: id, topo: topo, cfg: cfg, mech: mech, env: env, rnd: rnd,
		inputs:  make([]inputPort, n),
		outputs: make([]outputPort, n),
		recycle: recycle,
		cands:   make([][]candidate, n),
		outCand: make([][]candRef, n),
		granted: make([]bool, n),

		candIn:     make([]int, 0, n),
		outTouched: make([]int, 0, n),
	}
	if r.recycle == nil {
		r.recycle = func(*packet.Packet) {}
	}
	for p := 0; p < n; p++ {
		class := topo.PortClass(p)
		in := &r.inputs[p]
		in.class = class
		switch class {
		case topology.LocalPort:
			in.vcs = make([]vcQueue, cfg.LocalVCs)
			for i := range in.vcs {
				in.vcs[i].cap = cfg.LocalVCPhits
			}
		case topology.GlobalPort:
			in.vcs = make([]vcQueue, cfg.GlobalVCs)
			for i := range in.vcs {
				in.vcs[i].cap = cfg.GlobalVCPhits
			}
		case topology.InjectionPort:
			in.vcs = make([]vcQueue, 1)
			in.vcs[0].cap = cfg.InjectionQueuePackets * cfg.PacketSize
		}

		out := &r.outputs[p]
		out.class = class
		out.capVC = cfg.OutputBufferPhits
		nOutVC := 1 // ejection
		switch class {
		case topology.LocalPort:
			nOutVC = cfg.LocalVCs
			out.credits = make([]int, cfg.LocalVCs)
			for i := range out.credits {
				out.credits[i] = cfg.LocalVCPhits
			}
		case topology.GlobalPort:
			nOutVC = cfg.GlobalVCs
			out.credits = make([]int, cfg.GlobalVCs)
			for i := range out.credits {
				out.credits[i] = cfg.GlobalVCPhits
			}
		case topology.InjectionPort:
			// Ejection: the node consumes unconditionally.
		}
		out.queues = make([][]*packet.Packet, nOutVC)
		out.qheads = make([]int, nOutVC)
		out.occVC = make([]int, nOutVC)
		for _, c := range out.credits {
			out.creditsFree += c
			out.downTotal += c
		}
		if out.credits != nil {
			out.downCapVC = out.credits[0]
		}
		out.thresholdVC = int(cfg.CongestionThreshold * float64(out.capVC+out.downCapVC))
		r.cands[p] = make([]candidate, 0, 4)
		r.outCand[p] = make([]candRef, 0, 8)
	}
	return r
}

// Stats returns the router's accumulator for merging by the engine.
func (r *Router) Stats() *stats.Router { return &r.stats }

// SetMeasuring switches statistics collection on or off.
func (r *Router) SetMeasuring(on bool) { r.measuring = on }

// SetBatch selects the batch-means span deliveries are attributed to.
func (r *Router) SetBatch(i int) {
	if i < 0 {
		i = 0
	}
	if i >= stats.Batches {
		i = stats.Batches - 1
	}
	r.batch = i
}

// SetDeliverHook installs an observer called for every delivered packet.
func (r *Router) SetDeliverHook(h func(*packet.Packet)) { r.deliverHook = h }

// SetJobAttribution installs per-job accounting: nodeJob maps every node id
// to a job index (-1 for unallocated nodes) and numJobs sizes the per-job
// accumulators. The slice is shared read-only across routers.
func (r *Router) SetJobAttribution(nodeJob []int32, numJobs int) {
	r.nodeJob = nodeJob
	r.jobStats = make([]stats.Job, numJobs)
	r.jobLive = make([]int64, numJobs)
}

// JobStats returns this router's per-job accumulators (nil when no job
// attribution is installed), for merging by the engine.
func (r *Router) JobStats() []stats.Job { return r.jobStats }

// LiveJobDelivered returns the packets of job j delivered at this router
// since the start of the run, warm-up included and independent of the
// measurement window — the counter the dynamic scheduler polls for
// packet-target job completions.
func (r *Router) LiveJobDelivered(j int) int64 {
	if r.jobLive == nil {
		return 0
	}
	return r.jobLive[j]
}

// jobOf returns the accumulator for the job currently owning node src, or
// nil. Used only for events without a packet (backlogged attempts); packet
// events use jobByID with the stamp taken at generation.
func (r *Router) jobOf(src int) *stats.Job {
	if r.jobStats == nil {
		return nil
	}
	if j := r.nodeJob[src]; j >= 0 {
		return &r.jobStats[j]
	}
	return nil
}

// jobByID returns the accumulator for the packet-stamped job index, or nil.
func (r *Router) jobByID(j int32) *stats.Job {
	if r.jobStats == nil || j < 0 {
		return nil
	}
	return &r.jobStats[j]
}

// ConnectOut attaches the outgoing link of an output port.
func (r *Router) ConnectOut(port int, l *RingLink) { r.outputs[port].link = l }

// ConnectIn attaches the incoming link of an input port.
func (r *Router) ConnectIn(port int, l *RingLink) { r.inputs[port].link = l }

// RouterID implements routing.RouterView.
func (r *Router) RouterID() int { return r.id }

// OutputCongested implements routing.RouterView.
func (r *Router) OutputCongested(port, vc int) bool {
	o := &r.outputs[port]
	used := o.occVC[vc]
	if o.credits != nil {
		used += o.downCapVC - o.credits[vc]
	}
	return used > o.thresholdVC
}

// LinkLoad implements routing.RouterView.
func (r *Router) LinkLoad(port int) int { return r.outputs[port].used() }

// CanAbsorb implements routing.RouterView.
func (r *Router) CanAbsorb(port, vc int) bool {
	o := &r.outputs[port]
	if o.occVC[vc]+r.cfg.PacketSize > o.capVC {
		return false
	}
	if o.credits == nil {
		return true
	}
	return o.credits[vc] >= r.cfg.PacketSize
}

// InjectionBacklog returns the packets queued at the injection port of the
// node with per-router index nodeIdx.
func (r *Router) InjectionBacklog(nodeIdx int) int {
	port := r.topo.Params().A - 1 + r.topo.Params().H + nodeIdx
	return r.inputs[port].vcs[0].len()
}

// EnqueueInjection places a freshly generated packet into its node's
// injection queue. The caller must have checked InjectionBacklog against
// the source-queue bound.
func (r *Router) EnqueueInjection(now int64, p *packet.Packet) {
	routing.OnArrive(r.env, r.id, p, false)
	p.ReadyAt = now + int64(r.cfg.PipelineCycles)
	p.EnqueuedAt = now
	port := r.topo.NodePort(int(p.Src))
	r.inputs[port].vcs[0].push(p)
	r.inputs[port].qTotal++
	if r.measuring {
		r.stats.Generated++
		if j := r.jobByID(p.Job); j != nil {
			j.Generated++
		}
	}
}

// NoteBacklogged records a generation attempt by node src refused by a full
// source queue.
func (r *Router) NoteBacklogged(src int) {
	if r.measuring {
		r.stats.Backlogged++
		if j := r.jobOf(src); j != nil {
			j.Backlogged++
		}
	}
}

// InFlight counts packets held in this router's buffers and crossbar.
// Intended for conservation checks in tests.
func (r *Router) InFlight() int {
	n := 0
	for i := range r.inputs {
		for v := range r.inputs[i].vcs {
			n += r.inputs[i].vcs[v].len()
		}
	}
	for i := range r.outputs {
		o := &r.outputs[i]
		for vc := range o.queues {
			n += o.queueLen(vc)
		}
	}
	return n
}

// Step advances the router by one cycle: credits and buffer releases,
// packet arrivals, crossbar transfer completions, switch allocation, link
// transmission. The engine guarantees strictly increasing now values and
// at most one call per cycle.
func (r *Router) Step(now int64) {
	r.popCreditsAndReleases(now)
	r.popArrivals(now)
	r.completeTransfers(now)
	r.allocate(now)
	r.linkStage(now)
}

func (r *Router) popCreditsAndReleases(now int64) {
	// Buffer releases: the router-local calendar knows exactly when each
	// output frees the space of a sent packet, so only due outputs are
	// touched. (Late entries can only exist for manual steppers that skip
	// cycles; the dense engines visit every cycle.)
	for !r.relDue.empty() && r.relDue.q[r.relDue.head].at <= now {
		e := r.relDue.pop()
		o := &r.outputs[e.port]
		if o.releasePhits > 0 {
			o.occ -= o.releasePhits
			o.occVC[o.releaseVC] -= o.releasePhits
			o.releasePhits = 0
		}
	}
	for p := range r.outputs {
		if r.outputs[p].link != nil {
			r.popCredit(now, p)
		}
	}
}

func (r *Router) popCredit(now int64, p int) {
	o := &r.outputs[p]
	if vc, phits := o.link.PopCredit(now); phits > 0 {
		o.credits[vc] += phits
		o.creditsFree += phits
		if o.credits[vc] > r.downCapOf(o, vc) {
			panic(fmt.Sprintf("router %d: credit overflow on port %d vc %d", r.id, p, vc))
		}
	}
}

func (r *Router) downCapOf(o *outputPort, vc int) int {
	switch o.class {
	case topology.LocalPort:
		return r.cfg.LocalVCPhits
	case topology.GlobalPort:
		return r.cfg.GlobalVCPhits
	default:
		return 0
	}
}

func (r *Router) popArrivals(now int64) {
	for p := range r.inputs {
		if r.inputs[p].link != nil {
			r.popArrival(now, p)
		}
	}
}

func (r *Router) popArrival(now int64, p int) {
	in := &r.inputs[p]
	pkt := in.link.PopPacket(now)
	if pkt == nil {
		return
	}
	routing.OnArrive(r.env, r.id, pkt, in.class == topology.GlobalPort)
	pkt.ReadyAt = now + int64(r.cfg.PipelineCycles)
	pkt.EnqueuedAt = now
	q := &in.vcs[pkt.VC]
	if q.occ+int(pkt.Size) > q.cap {
		panic(fmt.Sprintf("router %d: input buffer overflow port %d vc %d (credit protocol violated)", r.id, p, pkt.VC))
	}
	q.push(pkt)
	in.qTotal++
}

func (r *Router) completeTransfers(now int64) {
	size := r.cfg.PacketSize
	// The completion calendar (fed by grant) names the exact inputs due,
	// so idle inputs are never touched. Entries only run late for manual
	// steppers that skip cycles; the engines always step at completion.
	for !r.xferDue.empty() && r.xferDue.q[r.xferDue.head].at <= now {
		p := int(r.xferDue.pop().port)
		in := &r.inputs[p]
		if !in.pending.active {
			continue
		}
		tr := in.pending
		in.pending.active = false
		pkt := in.vcs[tr.vcIdx].pop()
		in.qTotal--
		// Return the credit for the buffer space just freed.
		if in.link != nil {
			at := now + int64(in.link.Latency())
			in.link.PushCredit(at, tr.vcIdx, size)
		}
		if in.class == topology.InjectionPort {
			pkt.InjectTime = now
			if r.measuring {
				r.stats.Injected++
				if j := r.jobByID(pkt.Job); j != nil {
					j.Injected++
				}
			}
		}
		// Commit the routing decision and the hop.
		tr.action.Apply(pkt)
		pkt.VC = uint8(tr.outVC)
		out := &r.outputs[tr.outPort]
		switch out.class {
		case topology.LocalPort:
			pkt.LocalHops++
		case topology.GlobalPort:
			pkt.GlobalHops++
		}
		pkt.EnqueuedAt = now
		out.queues[pkt.VC] = append(out.queues[pkt.VC], pkt)
		out.qTotal++
	}
}

func (r *Router) allocate(now int64) {
	size := r.cfg.PacketSize
	// Gather per-input candidate requests: one NextHop per ready VC head,
	// in round-robin VC order. Only inputs that propose something have
	// their scratch state touched (candIn tracks them).
	r.candIn = r.candIn[:0]
	for p := range r.inputs {
		in := &r.inputs[p]
		if in.busyUntil > now {
			// The input frees when its crossbar transfer completes.
			continue
		}
		if in.qTotal == 0 {
			continue // no packets buffered: nothing to propose
		}
		nvc := len(in.vcs)
		fresh := false
		for i := 0; i < nvc; i++ {
			vc := (in.rrVC + i) % nvc
			pkt := in.vcs[vc].front()
			if pkt == nil {
				continue
			}
			if pkt.ReadyAt > now {
				continue
			}
			if !fresh {
				fresh = true
				r.cands[p] = r.cands[p][:0] // drop stale prior-cycle entries
				r.granted[p] = false
				r.candIn = append(r.candIn, p)
			}
			req := r.mech.NextHop(r.env, r, pkt, in.class, r.rnd)
			r.cands[p] = append(r.cands[p], candidate{vcIdx: vc, req: req})
		}
	}
	if len(r.candIn) == 0 {
		return
	}

	transitFirst := r.cfg.Arbitration == router.TransitOverInjection
	transitSubmitted := false
	for iter := 0; iter < r.cfg.AllocIterations; iter++ {
		// Submit: each free input proposes its first feasible candidate.
		// Under transit-over-injection priority the batch allocator
		// admits injection requests only into cycles where no transit
		// request could be submitted at all — the Blue Gene style
		// priority whose fairness cost Section V quantifies.
		submitted := false
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				if !transitFirst || submitted || transitSubmitted {
					break
				}
			}
			for _, p := range r.candIn {
				in := &r.inputs[p]
				if transitFirst {
					isInj := in.class == topology.InjectionPort
					if (pass == 0) == isInj {
						continue
					}
				} else if pass == 1 {
					break
				}
				if r.granted[p] || in.busyUntil > now || len(r.cands[p]) == 0 {
					continue
				}
				for ci := range r.cands[p] {
					c := &r.cands[p][ci]
					o := &r.outputs[c.req.Port]
					if o.crossbarBusyUntil > now || o.occVC[c.req.VC]+size > o.capVC {
						continue
					}
					if len(r.outCand[c.req.Port]) == 0 {
						r.outTouched = append(r.outTouched, c.req.Port)
					}
					r.outCand[c.req.Port] = append(r.outCand[c.req.Port], candRef{in: p, candIdx: ci})
					submitted = true
					if pass == 0 && transitFirst {
						transitSubmitted = true
					}
					break
				}
			}
		}
		if !submitted {
			return
		}
		// Grant: each output arbitrates among its requesters. Grants are
		// disjoint (an input proposes to exactly one output), so the
		// submission order used here matches the seed's port order.
		for _, p := range r.outTouched {
			if reqs := r.outCand[p]; len(reqs) > 0 {
				winner := r.arbitrate(&r.outputs[p], reqs)
				r.grant(now, winner)
			}
			r.outCand[p] = r.outCand[p][:0]
		}
		r.outTouched = r.outTouched[:0]
	}
}

// arbitrate picks the winning request among requesters of output o,
// according to the configured arbitration policy.
func (r *Router) arbitrate(o *outputPort, reqs []candRef) candRef {
	switch r.cfg.Arbitration {
	case router.TransitOverInjection:
		// Transit first; round-robin within the preferred class.
		best := candRef{in: -1}
		for _, ref := range reqs {
			if r.inputs[ref.in].class != topology.InjectionPort {
				if best.in == -1 || rrBefore(ref.in, best.in, o.rr, len(r.inputs)) {
					best = ref
				}
			}
		}
		if best.in >= 0 {
			return best
		}
		return r.roundRobinPick(o, reqs)
	case router.AgeBased:
		best := reqs[0]
		bestAge := r.headGen(best)
		for _, ref := range reqs[1:] {
			if age := r.headGen(ref); age < bestAge || (age == bestAge && ref.in < best.in) {
				best, bestAge = ref, age
			}
		}
		return best
	default:
		return r.roundRobinPick(o, reqs)
	}
}

// headGen returns the generation time of the packet a request proposes.
func (r *Router) headGen(ref candRef) int64 {
	c := &r.cands[ref.in][ref.candIdx]
	return r.inputs[ref.in].vcs[c.vcIdx].front().GenTime
}

func (r *Router) roundRobinPick(o *outputPort, reqs []candRef) candRef {
	best := reqs[0]
	for _, ref := range reqs[1:] {
		if rrBefore(ref.in, best.in, o.rr, len(r.inputs)) {
			best = ref
		}
	}
	return best
}

// rrBefore reports whether input a precedes input b in round-robin order
// starting at pointer ptr.
func rrBefore(a, b, ptr, n int) bool {
	da := (a - ptr + n) % n
	db := (b - ptr + n) % n
	return da < db
}

// grant commits the allocation of the referenced request.
func (r *Router) grant(now int64, ref candRef) {
	inPort := ref.in
	in := &r.inputs[inPort]
	cand := &r.cands[inPort][ref.candIdx]
	outPort := cand.req.Port
	pkt := in.vcs[cand.vcIdx].front()
	o := &r.outputs[outPort]
	xbar := int64(r.cfg.CrossbarCycles())

	// Wait accounting: time spent at the head of (or queued in) the
	// input buffer beyond the pipeline latency.
	wait := now - pkt.ReadyAt
	switch in.class {
	case topology.InjectionPort:
		pkt.WaitInj += wait
	case topology.LocalPort:
		pkt.WaitLocal += wait
	case topology.GlobalPort:
		pkt.WaitGlobal += wait
	}

	in.busyUntil = now + xbar
	r.xferDue.insert(in.busyUntil, int32(inPort))
	in.pending = pendingTransfer{
		active:  true,
		done:    now + xbar,
		vcIdx:   cand.vcIdx,
		outPort: outPort,
		outVC:   cand.req.VC,
		action:  cand.req.Action,
	}
	in.rrVC = (cand.vcIdx + 1) % len(in.vcs)
	o.crossbarBusyUntil = now + xbar
	o.occ += int(pkt.Size) // reserve output buffer space now (VCT)
	o.occVC[cand.req.VC] += int(pkt.Size)
	o.rr = (inPort + 1) % len(r.inputs)
	r.granted[inPort] = true
	r.cands[inPort] = r.cands[inPort][:0]
	r.stats.LastActivity = now
	if r.trace != nil {
		r.trace(now, router.TraceGrant, pkt, r.id, outPort, cand.req.VC)
	}
}

func (r *Router) linkStage(now int64) {
	size := r.cfg.PacketSize
	serial := int64(r.cfg.SerialCycles())
	for p := range r.outputs {
		o := &r.outputs[p]
		if o.linkBusyUntil > now {
			continue
		}
		if o.qTotal == 0 {
			continue // nothing queued for this output
		}
		// Link VC arbitration: round-robin over VCs whose head packet
		// has a full packet of downstream credit.
		nvc := len(o.queues)
		sendVC := -1
		for i := 0; i < nvc; i++ {
			vc := (o.rrVC + i) % nvc
			pkt := o.queueFront(vc)
			if pkt == nil {
				continue
			}
			if o.link != nil && o.credits[pkt.VC] < size {
				continue // VCT: wait for a full packet of credit
			}
			sendVC = vc
			break
		}
		if sendVC < 0 {
			continue
		}
		pkt := o.queuePop(sendVC)
		o.rrVC = (sendVC + 1) % nvc
		if o.link != nil {
			o.credits[pkt.VC] -= size
			o.creditsFree -= size
		}
		// Output-queue wait accounting by link class.
		wait := now - pkt.EnqueuedAt
		switch o.class {
		case topology.GlobalPort:
			pkt.WaitGlobal += wait
		default: // local and ejection queues are intra-group queues
			pkt.WaitLocal += wait
		}
		o.linkBusyUntil = now + serial
		o.releaseAt = now + serial
		o.releasePhits += size
		o.releaseVC = sendVC
		r.relDue.insert(o.releaseAt, int32(p))
		if r.trace != nil {
			r.trace(now, router.TraceLinkSend, pkt, r.id, p, int(pkt.VC))
		}
		if o.link != nil {
			at := now + serial + int64(o.link.Latency())
			pkt.LinkLat += int64(o.link.Latency())
			o.link.PushPacket(at, pkt)
		} else {
			r.deliver(now+serial, pkt)
		}
		r.stats.LastActivity = now
	}
}

// pathCost is the zero-load latency of a path with the given hop shape and
// summed link propagation latency: every router contributes
// pipeline+crossbar+serialisation, and linkLat prices the links actually
// (or, for the minimal-path base cost, hypothetically) traversed. Link
// latency is a per-link runtime parameter, so it arrives as a packet-carried
// sum rather than being derived from class constants.
func (r *Router) pathCost(local, global int, linkLat int64) int64 {
	c := r.cfg
	perRouter := int64(c.PipelineCycles + c.CrossbarCycles() + c.SerialCycles())
	return int64(local+global+1)*perRouter + linkLat
}

func (r *Router) deliver(at int64, pkt *packet.Packet) {
	pkt.DeliverTime = at
	if r.jobLive != nil && pkt.Job >= 0 {
		r.jobLive[pkt.Job]++
	}
	if r.measuring {
		s := &r.stats
		s.Delivered++
		s.DeliveredPhits += int64(pkt.Size)
		s.BatchPhits[r.batch] += int64(pkt.Size)
		lat := pkt.TotalLatency()
		s.LatencySum += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		if j := r.jobByID(pkt.Job); j != nil {
			j.Delivered++
			j.DeliveredPhits += int64(pkt.Size)
			j.LatencySum += lat
			if lat > j.MaxLatency {
				j.MaxLatency = lat
			}
			j.Latencies.Observe(lat)
		}
		s.Latencies.Observe(lat)
		base := r.pathCost(int(pkt.MinLocal), int(pkt.MinGlobal), pkt.MinLinkLat)
		s.BaseSum += base
		s.MisrouteSum += r.pathCost(int(pkt.LocalHops), int(pkt.GlobalHops), pkt.LinkLat) - base
		s.WaitInjSum += pkt.WaitInj
		s.WaitLocalSum += pkt.WaitLocal
		s.WaitGlobalSum += pkt.WaitGlobal
	}
	if r.trace != nil {
		r.trace(at, router.TraceDeliver, pkt, r.id, r.topo.NodePort(int(pkt.Dst)), 0)
	}
	if r.deliverHook != nil {
		r.deliverHook(pkt)
	}
	r.recycle(pkt)
}
