// Package router implements the FOGSim-style router model of Section IV-A:
// input- and output-buffered high-radix routers with per-VC input FIFOs,
// credit-based virtual cut-through flow control, a 5-cycle pipeline, a 2×
// crossbar speedup and an iterative separable allocator with configurable
// arbitration (round-robin, transit-over-injection priority, or age-based).
//
// The model is packet-atomic: packets move between buffers as units but
// charge exact serialisation and crossbar occupancy, and buffers are
// accounted in phits (see DESIGN.md for the fidelity argument).
//
// Core is the network: the state of every router lives in per-network
// arrays indexed by (router, port[, vc]), built and wired once by NewCore
// and stepped in place by the engines for as long as the network lives.
// Links are not objects: a packet or credit in flight is an entry in the
// receiving port's event ring. See DESIGN.md ("Structure-of-arrays router
// core") for the indexing scheme; internal/refmodel holds the dense
// per-router model the Core is proven bit-identical against.
package router

import (
	"fmt"
	"math"
	"math/bits"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
)

// LinkEvent is one future link arrival created during a step: a packet
// reaching an input port of the destination router, or a credit returning
// to an output port of the upstream router. The payload rides the event
// (Pkt for arrivals, PVC for credits — a credit always returns one packet's
// worth of phits, virtual cut-through moves whole packets): the engine hands it to
// PushDue, which parks it in the destination port's ring and answers with
// the cycle — if any — at which the destination has to step because of it.
type LinkEvent struct {
	Router int            // destination router id
	Port   int            // destination router's port the event lands on
	At     int64          // arrival cycle
	Credit bool           // credit return rather than packet arrival
	Pkt    *packet.Packet // the arriving packet (nil for credits)
	PVC    int32          // credit VC
}

// portDue is one entry of a router-local calendar: an event falling due at
// a port.
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
// fully drains stays O(pending) instead of growing with simulated cycles.
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

// pendRec is the crossbar transfer in progress at an input port (its
// completion cycle lives in inPort.busy). Multi-field records read and
// written together stay packed in one array element: the point of the flat
// layout is cache-line economy, not arrays for their own sake.
type pendRec struct {
	vc      int32
	outPort int32
	outVC   int32
	group   int32
	kind    packet.ActionKind
	active  bool
}

// candRec is one allocator candidate: a routing request for the head
// packet of one input VC.
type candRec struct {
	vc    int32
	port  int32
	outVC int32
	group int32
	kind  packet.ActionKind
}

// outCandRec is one submission at an output: the proposing input port
// and the index of its candidate.
type outCandRec struct{ in, idx int32 }

// inPort packs one input port's mutable hot state: everything the
// allocator, grant and transfer-completion stages read or write per
// port sits in one array element.
type inPort struct {
	busy    int64   // crossbar transfer completes at
	pend    pendRec // pending crossbar transfer (completion cycle in busy)
	rrVC    int32   // VC round-robin pointer
	qTotal  int32   // packets across the port's VC queues
	candN   int32   // allocator scratch: candidates gathered this cycle
	granted bool    // allocator scratch: input granted this cycle
}

// outPort packs one output port's mutable hot state (see inPort).
type outPort struct {
	linkBusy int64 // serializer frees at
	xbarBusy int64 // crossbar slot frees at
	relAt    int64 // pending buffer release falls due at
	relPhits int32
	relVC    int32
	occ      int32 // reserved phits across VCs
	qTotal   int32 // packets across the port's VC queues
	free     int32 // sum of credits across VCs
	rr       int32 // allocation round-robin pointer (input index)
	rrVC     int32 // link VC arbitration pointer
}

// portWire is one port's read-only wiring: the latency of the link behind
// it and the far-side address (peer -1: injection/ejection, or unplugged).
type portWire struct {
	lat      int32
	peer     int32
	peerPort int32
}

// inQState is the packed bookkeeping of one input VC ring: its window
// into the arena (off/qcap), FIFO position (head/qlen) and buffered phits.
type inQState struct{ off, qcap, head, qlen, occ int32 }

// outQState is the packed bookkeeping of one output VC ring, plus the
// VC's reserved phits and downstream credit balance (meaningless for
// ejection) — everything the link stage reads per VC, on one cache line.
type outQState struct{ off, qcap, head, qlen, occVC, credits int32 }

// evRing is the packed bookkeeping of one link-event ring.
type evRing struct{ off, qcap, head, qlen int32 }

// put claims the ring's tail slot and returns its arena index, or -1 when
// the ring is full.
func (q *evRing) put() int32 {
	if q.qlen == q.qcap {
		return -1
	}
	i := q.head + q.qlen
	if i >= q.qcap {
		i -= q.qcap
	}
	q.qlen++
	return q.off + i
}

type pktEvent struct {
	at int64
	p  *packet.Packet
}

// crdEvent is a credit in flight, one word: the arrival cycle above the VC
// (cycle<<8 | vc). Credit rings are sized by what a port can be owed, not by
// how long a credit flies (see layoutRings), so they hold four times the
// entries the arrival rings do; the packing keeps them at half the bytes. A
// multiple of 256 added to the word shifts the cycle and leaves the VC alone
// (Rebase).
type crdEvent int64

func newCrdEvent(at int64, vc int32) crdEvent { return crdEvent(at<<8 | int64(vc)) }

func (e crdEvent) at() int64 { return int64(e) >> 8 }
func (e crdEvent) vc() int   { return int(e & 0xff) }

// Wiring is everything NewCore needs to build and wire the routers of one
// network.
type Wiring struct {
	Topo *topology.Topology
	Cfg  *Config // VC counts already harmonised with Mech
	Mech routing.Mechanism
	// Rng is split once per router, in ascending id order.
	Rng *rng.Source
	// Latency assigns every link its propagation latency.
	Latency topology.LatencyModel
	Binding
	// NumJobs sizes the per-job accumulators (0: no job attribution).
	NumJobs int
}

// Binding carries the per-network hooks a Core reports to. A clone keeps
// the source's structure and state but is re-bound to its own network.
type Binding struct {
	// Env is the network's routing environment.
	Env *routing.Env
	// Recycle returns delivered packets to the network's pool.
	Recycle func(*packet.Packet)
	// Trace yields router r's trace hook (nil: tracing off).
	Trace func(r int) TraceFn
	// NodeJob is the network's live node→job map (nil without job
	// attribution); read-only here.
	NodeJob []int32
}

// shape is a Core's immutable structure: dimensions, hoisted constants,
// per-port-class tables and the wiring. Written by NewTemplate (and
// Unplug) only, and shared — backing arrays included — between a Core and
// its clones.
type shape struct {
	topo *topology.Topology
	cfg  *Config
	mech routing.Mechanism

	nr    int // routers
	np    int // ports per router
	maxVC int // VC stride (max VCs of any port class)

	// Derived cycle constants, hoisted out of the hot loops.
	size      int   // packet size in phits
	pipeline  int64 // input pipeline latency
	xbar      int64 // crossbar occupancy per packet
	serial    int64 // link serialisation per packet
	perRouter int64 // pathCost per-router term
	capVC     int32 // output buffer capacity per VC (uniform)
	allocIter int
	arb       Arbitration
	maxLat    int64 // longest wired link
	lookahead int64 // shortest wired inter-group link (see Lookahead)
	maskWords int   // bitmask words per router

	// Per-port-class constants, indexed by port (identical across routers).
	class     []topology.PortClass
	nInVC     []int32 // input VC count
	inCapVC   []int32 // input buffer capacity per VC, phits
	nOutVC    []int32 // output VC count
	downCapVC []int32 // downstream capacity per VC (0 for ejection)
	downTotal []int32 // total downstream capacity
	threshVC  []int32 // congestion threshold per VC, phits

	// Wiring, indexed by pi.
	inW  []portWire
	outW []portWire

	// Slots behind the four ring arenas (see layoutRings) and the size of
	// the per-job accumulators: what a Core needs beyond its shape to be
	// sized, so Clone can build a destination from a template that owns no
	// arenas.
	inTot, outTot, arrTot, crdTot int
	nJobs                         int
}

// Core holds the state of every router of one network.
// Array indices: pi = router*NP + port for per-port state and
// vi = pi*maxVC + vc for per-VC state, with NP the router radix and
// maxVC the widest VC count of any port class. Packet queues and
// link-event rings are fixed-capacity rings carved out of shared arenas
// (capacities are hard occupancy bounds under the credit protocol), so
// steady-state cycles never allocate — the zero-allocation gate in
// internal/sim relies on this.
//
// Concurrency contract: StepRouter and Settle touch only state of the
// router's index range, so disjoint routers may be stepped (or settled)
// concurrently. PushDue touches the destination router's rings: it may run
// while other routers step (a sender's sink parks its events at once), but
// never concurrently with a step, a Settle or another PushDue of the
// destination. Everything else (SetSink, SetPhases, Clone, Rebase) must
// happen with no step in flight.
type Core struct {
	shape

	// Per-network bindings (see Binding) and per-router engine hooks.
	env     *routing.Env
	recycle func(*packet.Packet)
	nodeJob []int32
	trace   []TraceFn
	notify  []func(LinkEvent)
	views   []View

	// Port bitmasks, maskWords words per router. inOcc/outOcc: bit p set iff
	// the port has packets buffered; arrPend/crdPend: bit p set iff the
	// port's event ring is non-empty; starved: bit p set iff the router's
	// last link stage found output p idle with packets queued and no head
	// holding a packet of credit — the one state in which a returning
	// credit makes the router act (see PushDue). The stages iterate set
	// bits instead of scanning all ports — ascending bit order preserves
	// the ascending-port iteration the bit-identity argument rests on.
	inOccMask   []uint64
	outOccMask  []uint64
	arrPendMask []uint64
	crdPendMask []uint64
	starved     []uint64

	// Per-port state, indexed by pi.
	inP  []inPort
	outP []outPort

	// Per-VC packet rings, indexed by vi: fixed-capacity windows into the
	// two arenas, FIFO via head/len.
	inQData  []*packet.Packet
	inQ      []inQState
	outQData []*packet.Packet
	outQ     []outQState

	// Link transport: per-port event rings fed by PushDue. Packet-arrival
	// rings are per input port, credit rings per output port, both indexed
	// by pi. Events on one port arrive in increasing-cycle order (the
	// sender serialises them), so a plain FIFO keeps them sorted.
	arrData []pktEvent
	arrQ    []evRing
	crdData []crdEvent
	crdQ    []evRing
	// lost counts packets serialised onto unplugged ports (see Unplug).
	lost int

	// Per router, the due cycle of its earliest unapplied state-only event
	// (buffer release, credit, packet arrival: bookAt — the gate of Settle)
	// and of its earliest unapplied arrival alone (arrAt, see
	// EarliestExternal); math.MaxInt64 when there is none. Both are exact:
	// PushDue and the release insert fold into them, the pop loops of
	// settle recompute them from the ring heads they stop at.
	bookAt []int64
	arrAt  []int64

	// Per-router state: arbitration RNG streams, accumulators, and the
	// router-local calendars of buffer releases and transfer completions.
	rnd      []rng.Source
	stats    []stats.Router
	jobStats [][]stats.Job // per-router windows into jobData; nil entries without job attribution
	jobLive  [][]int64     // per-router windows into liveData
	jobData  []stats.Job
	liveData []int64
	relDue   []dueQueue
	xferDue  []dueQueue

	// The run's phases (see SetPhases): cycles [warmup, total) are measured.
	// Read-only while a run steps, so every router derives its phase from the
	// cycle it is stepped at, wherever its group stands inside a window.
	warmup, total int64

	// Allocator scratch — not state: every entry is written before it is
	// read within one StepRouter call (outCandN is left all-zero by it).
	// Candidates are per (input port, slot) at stride maxVC; submissions
	// per (output port, slot) at stride np; candIn and outTouched are
	// per-router regions at stride np.
	cand       []candRec
	candIn     []int32
	candInN    []int32
	outCand    []outCandRec
	outCandN   []int32
	outTouched []int32
}

// NewCore builds and wires the routers of one network: ports, peers and
// per-link latencies go straight into the flat arrays.
func NewCore(w Wiring) (*Core, error) {
	c, err := NewTemplate(w)
	if err != nil {
		return nil, err
	}
	c.sizeArenas()
	return c, nil
}

// NewTemplate is NewCore without the ring arenas and the allocator scratch
// — most of a Core's bytes. The result holds the complete state of a
// freshly built, empty network and can only be cloned from: Clone never
// reads a dead ring slot or scratch, and an empty network has no live one.
func NewTemplate(w Wiring) (*Core, error) {
	topo, cfg := w.Topo, w.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{shape: shape{
		topo: topo, cfg: cfg, mech: w.Mech,
		nr: topo.NumRouters(), np: topo.NumPorts(), maxVC: max(cfg.LocalVCs, cfg.GlobalVCs),

		size:      cfg.PacketSize,
		pipeline:  int64(cfg.PipelineCycles),
		xbar:      int64(cfg.CrossbarCycles()),
		serial:    int64(cfg.SerialCycles()),
		perRouter: int64(cfg.PipelineCycles + cfg.CrossbarCycles() + cfg.SerialCycles()),
		capVC:     int32(cfg.OutputBufferPhits),
		allocIter: cfg.AllocIterations,
		arb:       cfg.Arbitration,
		nJobs:     w.NumJobs,
	}}
	c.maskWords = (c.np + 63) >> 6
	c.initPortClasses()
	if err := c.wire(w.Latency); err != nil {
		return nil, err
	}
	c.sizeState()
	c.layoutRings()
	c.bind(w.Binding)
	for r := range c.rnd {
		c.rnd[r] = *w.Rng.Split()
		c.bookAt[r], c.arrAt[r] = math.MaxInt64, math.MaxInt64
	}
	for pi := range c.outP {
		p := pi % c.np
		c.outP[pi].free = c.downTotal[p]
		for vc := 0; vc < int(c.nOutVC[p]); vc++ {
			c.outQ[pi*c.maxVC+vc].credits = c.downCapVC[p]
		}
	}
	return c, nil
}

// initPortClasses fills the per-port-class constant tables.
func (c *Core) initPortClasses() {
	cfg := c.cfg
	np := c.np
	c.class = make([]topology.PortClass, np)
	c.nInVC = make([]int32, np)
	c.inCapVC = make([]int32, np)
	c.nOutVC = make([]int32, np)
	c.downCapVC = make([]int32, np)
	c.downTotal = make([]int32, np)
	c.threshVC = make([]int32, np)
	for p := 0; p < np; p++ {
		cls := c.topo.PortClass(p)
		c.class[p] = cls
		switch cls {
		case topology.LocalPort:
			c.nInVC[p] = int32(cfg.LocalVCs)
			c.inCapVC[p] = int32(cfg.LocalVCPhits)
			c.nOutVC[p] = int32(cfg.LocalVCs)
			c.downCapVC[p] = int32(cfg.LocalVCPhits)
		case topology.GlobalPort:
			c.nInVC[p] = int32(cfg.GlobalVCs)
			c.inCapVC[p] = int32(cfg.GlobalVCPhits)
			c.nOutVC[p] = int32(cfg.GlobalVCs)
			c.downCapVC[p] = int32(cfg.GlobalVCPhits)
		case topology.InjectionPort:
			c.nInVC[p] = 1
			c.inCapVC[p] = int32(cfg.InjectionQueuePackets * cfg.PacketSize)
			c.nOutVC[p] = 1 // ejection: the node consumes unconditionally
		}
		c.downTotal[p] = c.nOutVC[p] * c.downCapVC[p]
		c.threshVC[p] = int32(cfg.CongestionThreshold * float64(int32(cfg.OutputBufferPhits)+c.downCapVC[p]))
	}
}

// wire records, for both ends of every link, the far-side address and the
// link's latency under the model.
func (c *Core) wire(model topology.LatencyModel) error {
	topo, np := c.topo, c.np
	c.inW = make([]portWire, c.nr*np)
	c.outW = make([]portWire, c.nr*np)
	for pi := range c.inW {
		c.inW[pi].peer, c.outW[pi].peer = -1, -1
	}
	connect := func(src, port, dst, inPort, lat int) error {
		if lat <= 0 {
			return fmt.Errorf("router: latency model %q assigns non-positive latency %d to link %d->%d",
				model.Name(), lat, src, dst)
		}
		c.maxLat = max(c.maxLat, int64(lat))
		if topo.RouterGroup(src) != topo.RouterGroup(dst) && (c.lookahead == 0 || int64(lat) < c.lookahead) {
			c.lookahead = int64(lat)
		}
		c.outW[src*np+port] = portWire{lat: int32(lat), peer: int32(dst), peerPort: int32(inPort)}
		c.inW[dst*np+inPort] = portWire{lat: int32(lat), peer: int32(src), peerPort: int32(port)}
		return nil
	}
	p := topo.Params()
	for r := 0; r < c.nr; r++ {
		for l := 0; l < p.A-1; l++ {
			nb := topo.LocalNeighbor(r, l)
			inPort := topo.LocalPortTo(nb, topo.RouterLocalIndex(r))
			if err := connect(r, l, nb, inPort, model.LocalLatency(topo, r, nb)); err != nil {
				return err
			}
		}
		for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
			nb, inPort := topo.GlobalNeighbor(r, gp)
			if err := connect(r, gp, nb, inPort, model.GlobalLatency(topo, r, nb)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fit returns s resliced to n elements when its capacity allows — contents
// stale — and a fresh zeroed slice otherwise.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// sizeState sizes every state array to the shape, reusing whatever capacity
// the Core already owns: on a fresh Core everything is allocated zeroed, on
// a retired one (see Clone) the arrays that fit are resliced and hold stale
// values until the caller overwrites them.
func (c *Core) sizeState() {
	nr, np, nj := c.nr, c.np, c.nJobs
	npp := nr * np
	c.inOccMask = fit(c.inOccMask, nr*c.maskWords)
	c.outOccMask = fit(c.outOccMask, nr*c.maskWords)
	c.arrPendMask = fit(c.arrPendMask, nr*c.maskWords)
	c.crdPendMask = fit(c.crdPendMask, nr*c.maskWords)
	c.starved = fit(c.starved, nr*c.maskWords)
	c.inP = fit(c.inP, npp)
	c.outP = fit(c.outP, npp)
	c.inQ = fit(c.inQ, npp*c.maxVC)
	c.outQ = fit(c.outQ, npp*c.maxVC)
	c.arrQ = fit(c.arrQ, npp)
	c.crdQ = fit(c.crdQ, npp)
	c.bookAt = fit(c.bookAt, nr)
	c.arrAt = fit(c.arrAt, nr)
	c.rnd = fit(c.rnd, nr)
	c.stats = fit(c.stats, nr)
	c.jobStats = fit(c.jobStats, nr)
	c.jobLive = fit(c.jobLive, nr)
	c.jobData = fit(c.jobData, nr*nj)
	c.liveData = fit(c.liveData, nr*nj)
	for r := 0; r < nr; r++ {
		c.jobStats[r], c.jobLive[r] = nil, nil
		if nj > 0 {
			c.jobStats[r] = c.jobData[r*nj : (r+1)*nj : (r+1)*nj]
			c.jobLive[r] = c.liveData[r*nj : (r+1)*nj : (r+1)*nj]
		}
	}
	if cap(c.relDue) >= nr {
		// Retired calendars keep their (possibly privately grown) buffers.
		c.relDue, c.xferDue = c.relDue[:nr], c.xferDue[:nr]
	} else {
		// Calendar buffers from one arena, capacity-capped sub-slices: a
		// queue that outgrows its window reallocates privately via append.
		c.relDue = make([]dueQueue, nr)
		c.xferDue = make([]dueQueue, nr)
		arena := make([]portDue, 2*npp)
		for r := 0; r < nr; r++ {
			pos := 2 * r * np
			c.relDue[r].q = arena[pos : pos : pos+np]
			c.xferDue[r].q = arena[pos+np : pos+np : pos+2*np]
		}
	}
	c.trace = fit(c.trace, nr)
	c.notify = fit(c.notify, nr)
	c.views = fit(c.views, nr)
	for r := range c.views {
		c.views[r] = View{c: c, r: int32(r)}
	}
}

// sizeArenas gives the Core what stepping needs beyond its state: the four
// ring arenas behind the geometry of layoutRings, and the allocator scratch.
// Capacity is reused as in sizeState; neither a dead ring slot nor scratch
// is ever read before it is written, so stale contents are harmless — with
// the one exception of outCandN, which StepRouter expects all-zero (and a
// run that died mid-allocation may have left submissions behind).
func (c *Core) sizeArenas() {
	npp := c.nr * c.np
	c.inQData = fit(c.inQData, c.inTot)
	c.outQData = fit(c.outQData, c.outTot)
	c.arrData = fit(c.arrData, c.arrTot)
	c.crdData = fit(c.crdData, c.crdTot)
	c.cand = fit(c.cand, npp*c.maxVC)
	c.candIn = fit(c.candIn, npp)
	c.candInN = fit(c.candInN, c.nr)
	c.outCand = fit(c.outCand, npp*c.np)
	c.outCandN = fit(c.outCandN, npp)
	clear(c.outCandN)
	c.outTouched = fit(c.outTouched, npp)
}

// layoutRings carves the ring geometry: one offset/capacity pair per VC
// queue and per link-event ring, and the arena totals behind them.
// Queue capacities are the credit protocol's occupancy bounds, and so are
// the credit rings': an entry is the credit for one packet the port has
// sent and not been credited for, the port cannot have more of those than
// the downstream buffer holds packets, and with credits settled lazily
// nothing else bounds how long one waits in its ring (a sleeping router with
// nothing queued at the port is never woken for it). A packet, by contrast,
// lives in its arrival ring from the push until the receiver's first step at
// or after the cycle it becomes allocatable — arrival plus the input
// pipeline, the engine wakes it for that — and successive packets on one
// link are at least the serialisation time apart. Both ends of a local link
// belong to one group and advance in lockstep, so (latency+pipeline)/spacing
// + 4 bounds the ring with slack. The ends of a global link belong to
// different groups, and inside a time window (see Lookahead) the sender may
// run up to a lookahead ahead of the receiver: its packets wait that much
// longer, and the ring is (latency+lookahead+pipeline)/spacing + 4.
func (c *Core) layoutRings() {
	np, maxVC := c.np, c.maxVC
	size := int32(c.size)
	pktSpacing := int32(max(c.serial, 1))
	var inTot, outTot, arrTot, crdTot int32
	for pi := range c.arrQ {
		p := pi % np
		if w := c.inW[pi]; w.peer >= 0 {
			flight := w.lat + int32(c.pipeline)
			if c.topo.RouterGroup(pi/np) != c.topo.RouterGroup(int(w.peer)) {
				flight += int32(c.lookahead)
			}
			c.arrQ[pi] = evRing{off: arrTot, qcap: flight/pktSpacing + 4}
			arrTot += c.arrQ[pi].qcap
		}
		if c.outW[pi].peer >= 0 {
			c.crdQ[pi] = evRing{off: crdTot, qcap: c.downTotal[p] / size}
			crdTot += c.crdQ[pi].qcap
		}
		for vc := 0; vc < int(c.nInVC[p]); vc++ {
			c.inQ[pi*maxVC+vc] = inQState{off: inTot, qcap: c.inCapVC[p] / size}
			inTot += c.inCapVC[p] / size
		}
		for vc := 0; vc < int(c.nOutVC[p]); vc++ {
			c.outQ[pi*maxVC+vc] = outQState{off: outTot, qcap: c.capVC / size}
			outTot += c.capVC / size
		}
	}
	c.inTot, c.outTot, c.arrTot, c.crdTot = int(inTot), int(outTot), int(arrTot), int(crdTot)
}

// bind attaches the Core to its network's hooks and clears the engine's.
func (c *Core) bind(b Binding) {
	c.env = b.Env
	c.recycle = b.Recycle
	c.nodeJob = b.NodeJob
	for r := range c.trace {
		c.trace[r] = nil
		if b.Trace != nil {
			c.trace[r] = b.Trace(r)
		}
		c.notify[r] = nil
	}
}

// Clone copies c's state into a Core bound to another network, every
// buffered or in-flight packet deep-copied. The immutable shape is shared;
// allocator scratch is not state and is not copied. into, when non-nil, is
// a retired Core of any shape: it is overwritten and returned, each of its
// arrays resliced where its capacity covers c's shape and reallocated where
// not — so a Core retired from one mechanism's network serves a restore of
// another's, and recycling within one shape allocates nothing beyond the
// live packets; the packets the retired run left behind go back through
// into's own Recycle hook. c may be a template (see NewTemplate); the
// destination always gets arenas and scratch. Both Cores must be between
// cycles.
func (c *Core) Clone(into *Core, b Binding) *Core {
	d := into
	if d == nil {
		d = &Core{}
	} else {
		// Hand the retired run's packets back to its network's pool — the one
		// the clone will generate from — while d's old geometry still finds them.
		d.eachPacket(func(slot **packet.Packet, _ int, _ int32) { d.recycle(*slot); *slot = nil })
	}
	d.shape = c.shape
	d.sizeState()
	d.sizeArenas()
	d.bind(b)
	d.lost = 0

	copy(d.inOccMask, c.inOccMask)
	copy(d.outOccMask, c.outOccMask)
	copy(d.arrPendMask, c.arrPendMask)
	copy(d.crdPendMask, c.crdPendMask)
	copy(d.starved, c.starved)
	copy(d.inP, c.inP)
	copy(d.outP, c.outP)
	copy(d.inQ, c.inQ)
	copy(d.outQ, c.outQ)
	copy(d.arrQ, c.arrQ)
	copy(d.crdQ, c.crdQ)
	copy(d.rnd, c.rnd)
	copy(d.stats, c.stats)
	copy(d.bookAt, c.bookAt)
	copy(d.arrAt, c.arrAt)
	copy(d.jobData, c.jobData)
	copy(d.liveData, c.liveData)
	for r := 0; r < c.nr; r++ {
		d.relDue[r].q = append(d.relDue[r].q[:0], c.relDue[r].q[c.relDue[r].head:]...)
		d.xferDue[r].q = append(d.xferDue[r].q[:0], c.xferDue[r].q[c.xferDue[r].head:]...)
		d.relDue[r].head, d.xferDue[r].head = 0, 0
	}
	// The ring records were copied, so every live event and packet sits at
	// the same arena position in both Cores; dead slots need no copy.
	c.eachMasked(c.crdPendMask, func(pi, _ int) {
		q := &c.crdQ[pi]
		for k, h := int32(0), q.head; k < q.qlen; k++ {
			d.crdData[q.off+h] = c.crdData[q.off+h]
			if h++; h == q.qcap {
				h = 0
			}
		}
	})
	c.eachPacket(func(slot **packet.Packet, arena int, i int32) {
		if arena == 2 {
			d.arrData[i].at = c.arrData[i].at
		}
		cp := **slot
		*d.slot(arena, i) = &cp
	})
	return d
}

// Rebase shifts every absolute cycle held in the state — busy times,
// calendars, in-flight events, packet clocks, last-activity stamps — delta
// cycles into the past, so state reached at cycle delta of one run is
// valid at cycle 0 of the next. Differences between cycles, which is all
// the pipeline ever computes, are preserved exactly. Must be called
// between cycles.
func (c *Core) Rebase(delta int64) {
	for i := range c.inP {
		c.inP[i].busy -= delta
	}
	for i := range c.outP {
		o := &c.outP[i]
		o.linkBusy -= delta
		o.xbarBusy -= delta
		o.relAt -= delta
	}
	for i := range c.arrData {
		c.arrData[i].at -= delta // dead slots included: harmless, and branch-free
	}
	for i := range c.crdData {
		c.crdData[i] -= crdEvent(delta << 8)
	}
	shift := func(d *dueQueue) {
		for i := d.head; i < len(d.q); i++ {
			d.q[i].at -= delta
		}
	}
	for r := 0; r < c.nr; r++ {
		c.stats[r].LastActivity -= delta
		if c.bookAt[r] != math.MaxInt64 {
			c.bookAt[r] -= delta
		}
		if c.arrAt[r] != math.MaxInt64 {
			c.arrAt[r] -= delta
		}
		shift(&c.relDue[r])
		shift(&c.xferDue[r])
	}
	c.eachPacket(func(slot **packet.Packet, _ int, _ int32) { (*slot).Rebase(delta) })
}

// slot addresses entry i of one of the three packet-holding arenas: the
// input queues (0), the output queues (1), the arrival rings (2).
func (c *Core) slot(arena int, i int32) **packet.Packet {
	switch arena {
	case 0:
		return &c.inQData[i]
	case 1:
		return &c.outQData[i]
	default:
		return &c.arrData[i].p
	}
}

// eachPacket calls fn with the slot (and its arena address, see slot) of
// every packet the Core holds: queued at an input or output VC, or in
// flight in an arrival ring. The port bitmasks name the non-empty rings,
// so the walk costs O(live), not O(network).
func (c *Core) eachPacket(fn func(slot **packet.Packet, arena int, i int32)) {
	ring := func(arena int, off, qcap, head, qlen int32) {
		for k, h := int32(0), head; k < qlen; k++ {
			fn(c.slot(arena, off+h), arena, off+h)
			if h++; h == qcap {
				h = 0
			}
		}
	}
	c.eachMasked(c.inOccMask, func(pi, p int) {
		for vc := 0; vc < int(c.nInVC[p]); vc++ {
			q := &c.inQ[pi*c.maxVC+vc]
			ring(0, q.off, q.qcap, q.head, q.qlen)
		}
	})
	c.eachMasked(c.outOccMask, func(pi, p int) {
		for vc := 0; vc < int(c.nOutVC[p]); vc++ {
			q := &c.outQ[pi*c.maxVC+vc]
			ring(1, q.off, q.qcap, q.head, q.qlen)
		}
	})
	c.eachMasked(c.arrPendMask, func(pi, _ int) {
		q := &c.arrQ[pi]
		ring(2, q.off, q.qcap, q.head, q.qlen)
	})
}

// eachMasked calls fn(pi, port) for every set bit of a per-router port
// bitmask.
func (c *Core) eachMasked(mask []uint64, fn func(pi, p int)) {
	for i, m := range mask {
		r, pb := i/c.maskWords, (i%c.maskWords)<<6
		for ; m != 0; m &= m - 1 {
			p := pb + bits.TrailingZeros64(m)
			fn(r*c.np+p, p)
		}
	}
}

// Views returns the per-router views, indexed by router id.
func (c *Core) Views() []View { return c.views }

// MaxLinkLatency returns the longest link latency wired into the network.
func (c *Core) MaxLinkLatency() int64 { return c.maxLat }

// Lookahead returns the shortest latency of any wired link between two
// groups: nothing a router does at cycle t can reach another group before
// t + Lookahead, so the engines may step one group through that many
// consecutive cycles before they touch the next (DESIGN.md, "Time
// windows"). Every local link joins two routers of one group and every
// global link two groups, so this is the shortest global link.
func (c *Core) Lookahead() int64 { return c.lookahead }

// Unplug detaches router r's output port from its peer: packets sent
// there serialise onto a dead cable and never arrive, though InFlight
// keeps counting them. It exists for the deadlock-watchdog tests (valid
// configurations cannot deadlock). The wiring is shared with clones, so
// only ever unplug a freshly built network that will not be snapshotted.
func (c *Core) Unplug(r, port int) { c.outW[r*c.np+port].peer = -1 }

// SetSink installs the engine event sink of one router: it is handed a
// LinkEvent, always with a strictly future cycle, for every packet the
// router sends to a neighbour and every credit it returns upstream, and
// has to get it to PushDue of the destination. The engines install sinks
// before the first step of a run.
func (c *Core) SetSink(r int, fn func(LinkEvent)) { c.notify[r] = fn }

// SetAllSinks installs (or clears, with nil) every router's event sink.
func (c *Core) SetAllSinks(fn func(LinkEvent)) {
	for r := range c.notify {
		c.notify[r] = fn
	}
}

// SetPhases tells the Core the phases of the run about to start: statistics
// are collected at cycles [warmup, total) — a router stepped (or generated
// for) at cycle now measures iff now >= warmup, see measuring — and
// deliveries are attributed to the batch-means span stats.BatchIndex(now,
// warmup, total).
func (c *Core) SetPhases(warmup, total int64) { c.warmup, c.total = warmup, total }

// measuring reports whether statistics are collected at cycle now.
func (c *Core) measuring(now int64) bool { return now >= c.warmup }

// PushDue parks a link event in the destination port's ring of router r and
// returns the cycle at which r has to step because of it, or -1 when the
// event cannot make r act: a packet can be allocated once it has crossed the
// input pipeline (ev.At + pipeline); a credit lets a starved output send
// (ev.At), and on any other output it only moves a counter. The event itself
// is applied by Settle — at r's next step or the next time anyone reads r's
// state, whichever comes first. The engine must call PushDue — between router
// r's steps — for every LinkEvent whose Router field names r and wake r no
// later than the cycle returned; settle panics on an event whose step was
// slept through.
func (c *Core) PushDue(r int, ev LinkEvent) int64 {
	rings, mask := c.arrQ, c.arrPendMask
	if ev.Credit {
		rings, mask = c.crdQ, c.crdPendMask
	}
	i := rings[r*c.np+ev.Port].put()
	if i < 0 {
		panic(fmt.Sprintf("router %d: link event ring full on port %d (credit %v; the sender broke the spacing promise or the credit protocol)", r, ev.Port, ev.Credit))
	}
	word, bit := r*c.maskWords+ev.Port>>6, uint64(1)<<(uint(ev.Port)&63)
	mask[word] |= bit
	if ev.At < c.bookAt[r] {
		c.bookAt[r] = ev.At
	}
	if ev.Credit {
		c.crdData[i] = newCrdEvent(ev.At, ev.PVC)
		if c.starved[word]&bit != 0 {
			return ev.At
		}
		return -1
	}
	c.arrData[i] = pktEvent{at: ev.At, p: ev.Pkt}
	if ev.At < c.arrAt[r] {
		c.arrAt[r] = ev.At
	}
	return ev.At + c.pipeline
}

// EarliestExternal returns the earliest cycle at which a packet already
// routed to router r can be allocated — its arrival plus the input pipeline
// — or -1 if none is in flight. The scheduler consults it when putting the
// router to sleep, because in-flight packets are invisible to the router's
// own state (StepRouter's return value covers internal events only; the
// credits a starved output waits for are part of it). Credits and buffer
// releases that only move counters wake nobody: Settle applies them.
func (c *Core) EarliestExternal(r int) int64 {
	if at := c.arrAt[r]; at != math.MaxInt64 {
		return at + c.pipeline
	}
	return -1
}

// OutputUsed estimates the phits queued at an output port, including
// downstream phits whose credits have not returned.
func (c *Core) OutputUsed(r, port int) int {
	pi := r*c.np + port
	return int(c.outP[pi].occ + c.downTotal[port] - c.outP[pi].free)
}

// InFlight counts the packets inside the network: held in buffers and
// crossbars, travelling on links, or lost on unplugged ports.
func (c *Core) InFlight() int {
	n := c.lost
	for i := range c.inQ {
		n += int(c.inQ[i].qlen)
	}
	for i := range c.outQ {
		n += int(c.outQ[i].qlen)
	}
	for i := range c.arrQ {
		n += int(c.arrQ[i].qlen)
	}
	return n
}

// InjectionBacklog returns the packets queued at router r's injection
// port of the node with per-router index nodeIdx.
func (c *Core) InjectionBacklog(r, nodeIdx int) int {
	p := c.topo.Params()
	port := p.A - 1 + p.H + nodeIdx
	return int(c.inQ[(r*c.np+port)*c.maxVC].qlen)
}

// NoteBacklogged records a generation attempt of cycle now by node src,
// refused by the full source queue at router r.
func (c *Core) NoteBacklogged(r int, now int64, src int) {
	if !c.measuring(now) {
		return
	}
	c.stats[r].Backlogged++
	if c.jobStats[r] != nil {
		if j := c.nodeJob[src]; j >= 0 {
			c.jobStats[r][j].Backlogged++
		}
	}
}

// EnqueueInjection places a freshly generated packet into its node's
// injection queue at router r. The caller must have checked
// InjectionBacklog against the source-queue bound.
func (c *Core) EnqueueInjection(r int, now int64, p *packet.Packet) {
	routing.OnArrive(c.env, r, p, false)
	p.ReadyAt = now + c.pipeline
	p.EnqueuedAt = now
	port := c.topo.NodePort(p.Src)
	pi := r*c.np + port
	vi := pi * c.maxVC
	c.inQPush(vi, p)
	c.inQ[vi].occ += int32(p.Size)
	c.inP[pi].qTotal++
	c.inOccMask[r*c.maskWords+port>>6] |= 1 << (uint(port) & 63)
	if c.measuring(now) {
		c.stats[r].Generated++
		if j := c.jobByID(r, p.Job); j != nil {
			j.Generated++
		}
	}
}

// jobByID returns router r's accumulator for a packet-stamped job, or nil.
func (c *Core) jobByID(r int, j int32) *stats.Job {
	if c.jobStats[r] == nil || j < 0 {
		return nil
	}
	return &c.jobStats[r][j]
}

// Stats returns router r's accumulator.
func (c *Core) Stats(r int) *stats.Router { return &c.stats[r] }

// JobStats returns router r's per-job accumulators (nil when no job
// attribution is installed).
func (c *Core) JobStats(r int) []stats.Job { return c.jobStats[r] }

// LiveJobDelivered returns the packets of job j delivered at router r
// since the start of the run, warm-up included and independent of the
// measurement window — the counter the dynamic scheduler polls for
// packet-target job completions.
func (c *Core) LiveJobDelivered(r, j int) int64 {
	if c.jobLive[r] == nil {
		return 0
	}
	return c.jobLive[r][j]
}
