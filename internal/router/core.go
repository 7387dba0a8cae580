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
// Links are not objects: a packet in flight waits in the receiving port's
// arrival queue, a credit in its ring. See DESIGN.md ("Structure-of-arrays
// router core") for the indexing scheme; internal/refmodel holds the dense
// per-router model the Core is proven bit-identical against.
package router

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

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
// PushDue, which parks it at the destination port and answers with the
// cycle — if any — at which the destination has to step because of it.
type LinkEvent struct {
	Router int            // destination router id
	port   int            // destination router's port the event lands on
	at     int64          // arrival cycle
	Credit bool           // credit return rather than packet arrival
	pkt    *packet.Packet // the arriving packet (nil for credits)
	pvc    int32          // credit VC
}

// portDue is one entry of a router-local calendar: an event falling due at
// a port.
type portDue struct {
	at   int64
	port int32
}

// dueQueue is a time-sorted FIFO of pending port events in a fixed window
// of np entries (see sizeState): a router has at most one pending release
// per output and one transfer per input, so np bounds what is live at once.
type dueQueue struct {
	q    []portDue
	head int
}

// insert places an event keeping the queue sorted by time; events are
// near-future, so bubbling from the tail is effectively O(1). A full window
// is compacted in place; one that is full of live entries breaks the bound
// above, and name says which calendar did.
func (d *dueQueue) insert(at int64, port int32, name string) {
	if len(d.q) == cap(d.q) {
		if d.head == 0 {
			panic(fmt.Sprintf("router: %s calendar overflow: %d events pending, at most one per port", name, len(d.q)))
		}
		d.q = d.q[:copy(d.q, d.q[d.head:])]
		d.head = 0
	}
	d.q = append(d.q, portDue{at: at, port: port})
	for i := len(d.q) - 1; i > d.head && d.q[i-1].at > at; i-- {
		d.q[i], d.q[i-1] = d.q[i-1], d.q[i]
	}
}

// pop removes and returns the head entry.
func (d *dueQueue) pop() portDue {
	e := d.q[d.head]
	if d.head++; d.head == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	}
	return e
}

// candRec is one allocator candidate: a routing request for the head
// packet of one input VC. Port and VC indices are held to 16 and 8 bits
// (NewTemplate refuses a radix past 1<<16, Config.Validate more than 256
// VCs), so the record is 12 bytes.
type candRec struct {
	group     int32 // the routing action's group
	outPort   uint16
	vc, outVC uint8 // the input VC, and the output VC requested
	kind      packet.ActionKind
}

// pendRec is the crossbar transfer in progress at an input port: the
// granted candidate (its completion cycle lives in inPort.busy).
// Multi-field records read and written together stay packed in one array
// element: the point of the flat layout is cache-line economy, not arrays
// for their own sake.
type pendRec struct {
	candRec
	active bool
}

// outCandRec is one submission at an output: the proposing input port
// and the index of its candidate.
type outCandRec struct{ in, idx int32 }

// allocScratch is the allocator's working memory for one router step, not
// state: every entry is written before it is read within one StepRouter
// call, and outCandN is left all-zero by it. A stepper steps one router at
// a time, so it needs one (see SizeScratch); the tail pad keeps one
// stepper's candInN off the lines of the next stepper's record.
type allocScratch struct {
	cand       []candRec    // per (input port, slot): port p's from vcOff[p] on
	candN      []int32      // per input port: candidates gathered this step
	granted    []bool       // per input port: granted this step
	candIn     []int32      // the inputs that gathered candidates, ascending
	candInN    int32        // their number
	outCand    []outCandRec // per (output port, slot), stride np
	outCandN   []int32      // submissions per output port
	outTouched []int32      // the outputs with submissions, in submission order
	_          [scratchPad]byte
}

// scratchPad is the unused slack, in bytes, around every array of the
// allocator scratch and after every stepper's record: adjacent-line
// prefetch pairs 64-byte lines, so two steppers that write within one
// 128-byte block would keep taking the block from each other.
const scratchPad = 128

// inPort packs one input port's mutable hot state: everything the
// allocator, grant and transfer-completion stages read or write per
// port sits in one array element, 32 bytes (TestCoreRecordSizes).
type inPort struct {
	busy   int64   // crossbar transfer completes at
	pend   pendRec // pending crossbar transfer (completion cycle in busy)
	qTotal int32   // packets across the port's VC queues
	rrVC   uint8   // VC round-robin pointer
}

// outPort packs one output port's mutable hot state (see inPort), 40 bytes.
// A sent packet's buffer space is released when its serialisation ends, at
// linkBusy: there is no separate release cycle to keep.
type outPort struct {
	linkBusy int64 // serializer frees at, and the pending buffer release falls due
	xbarBusy int64 // crossbar slot frees at
	relPhits int32
	occ      int32  // reserved phits across VCs
	qTotal   int32  // packets across the port's VC queues
	free     int32  // sum of credits across VCs
	rr       uint16 // allocation round-robin pointer (input index)
	relVC    uint8
	rrVC     uint8 // link VC arbitration pointer
}

// portWire is one port's read-only wiring: the latency of the link behind
// it and the far-side address (peer -1: injection/ejection, or unplugged).
type portWire struct {
	lat      int32
	peer     int32
	peerPort int32
}

// inQState is one input VC: its packet FIFO, the FIFO's length and the
// buffered phits.
type inQState struct {
	q         packet.Queue
	qlen, occ int32
}

// outQState is one output VC: its packet FIFO and the FIFO's length, plus
// the VC's reserved phits and downstream credit balance (meaningless for
// ejection) — everything the link stage reads per VC, on one cache line.
type outQState struct {
	q                    packet.Queue
	qlen, occVC, credits int32
}

// arrQueue is the packets in flight towards one input port, in arrival
// order; each carries its arrival cycle in EnqueuedAt.
type arrQueue struct {
	q packet.Queue
	n int32
}

// evRing is the packed bookkeeping of one credit ring.
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

// crdEvent is a credit in flight, one word: the arrival cycle above the VC
// (cycle<<8 | vc). Credit rings hold what their link can have in flight (see
// layoutCredits), and the packing keeps them at one word per entry. A
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
	// Family, when non-nil, is a template built over the same Topo from the
	// same latency model and RNG stream: NewTemplate borrows its wiring and
	// arbitration streams instead of computing them, and leaves Rng and
	// Latency unread. NewCore refuses it — a live Core steps its own streams.
	Family *Core
}

// Binding carries the per-network hooks a Core reports to. A clone keeps
// the source's structure and state but is re-bound to its own network.
type Binding struct {
	// Env is the network's routing environment.
	Env *routing.Env
	// Recycle returns a delivered packet to the network's free list.
	Recycle func(*packet.Packet)
	// RecycleQueue returns a whole queue of packets to the network's free
	// list: Clone hands back what a retired Core still held this way, one
	// queue at a time, without touching a packet.
	RecycleQueue func(packet.Queue)
	// Trace yields router r's trace hook (nil: tracing off).
	Trace func(r int) TraceFn
	// NodeJob is the network's live node→job map (nil without job
	// attribution); read-only here.
	NodeJob []int32
}

// shape is a Core's immutable structure: dimensions, hoisted constants,
// per-port-class tables and the wiring. Written by NewTemplate (and
// Unplug) only, and shared — backing arrays included — between a Core and
// its clones; the wiring also between the templates of one family (see
// Wiring.Family).
type shape struct {
	topo *topology.Topology
	cfg  *Config
	mech routing.Mechanism

	nr  int // routers
	np  int // ports per router
	vcs int // VC records per router: the VCs of all its ports

	// Derived cycle constants, hoisted out of the hot loops.
	size      int   // packet size in phits
	pipeline  int64 // input pipeline latency
	xbar      int64 // crossbar occupancy per packet
	serial    int64 // link serialisation per packet
	perRouter int64 // pathCost per-router term
	capVC     int32 // output buffer capacity per VC (uniform)
	outQCap   int32 // packets an output VC holds (capVC / size)
	allocIter int
	arb       Arbitration
	maxLat    int64 // longest wired link
	lookahead int64 // shortest wired inter-group link (see Lookahead)
	maskWords int   // bitmask words per router

	// Per-port-class constants, indexed by port (identical across routers).
	class     []topology.PortClass
	vcOff     []int32 // the port's first VC record within its router's (see Core)
	nInVC     []int32 // input VC count
	inCapVC   []int32 // input buffer capacity per VC, phits
	nOutVC    []int32 // output VC count
	downCapVC []int32 // downstream capacity per VC (0 for ejection)
	downTotal []int32 // total downstream capacity
	threshVC  []int32 // congestion threshold per VC, phits
	// Packet-count bounds the credit protocol guarantees: an input VC holds
	// inCapVC/size packets, the packets in flight towards an input port
	// are at most what its VCs hold — a sender only sends into credited space
	// — and the credits an output is owed at most what the downstream buffer
	// holds (downTotal/size; a credit ring holds at most that many, fewer
	// where its link has fewer in flight, see layoutCredits).
	inQCap []int32
	arrCap []int32
	crdCap []int32

	// Wiring, indexed by pi.
	inW  []portWire
	outW []portWire

	// Slots behind the credit-ring arena (see layoutCredits) and the size of
	// the per-job accumulators: what a Core needs beyond its shape to be
	// sized, so Clone can build a destination from a template that owns no
	// state.
	crdTot int
	nJobs  int
}

// Core holds the state of every router of one network.
// Array indices: pi = router*NP + port for per-port state and
// vi = router*VCS + vcOff[port] + vc for per-VC state (vcBase), with NP the
// router radix, VCS the VCs of all a router's ports and vcOff[port] the VCs
// of the ports before it — a port holds as many VC records as it has VCs,
// and a port's input and output VCs are equally many. Packet queues — the VC
// buffers and the packets in flight towards an input port — are intrusive
// FIFOs (packet.Queue): a queue is two words, and a packet carries its own
// link, so the Core's bytes do not grow with buffer depth. Each queue's
// length is held to the occupancy bound of the credit protocol (inQCap,
// outQCap, arrCap). Credits in flight sit in fixed-capacity rings carved out
// of one arena, the event calendars in fixed windows, and delivered packets
// go back to the network's free list, so steady-state cycles never allocate —
// the zero-allocation gate in internal/sim relies on this.
//
// Concurrency contract: StepRouter and Settle touch only state of the
// router's index range, and StepRouter the allocator scratch it is handed,
// so routers of distinct groups may be stepped (or settled) concurrently as
// long as each concurrent stepper steps in a scratch of its own. PushDue
// touches the destination router's queues and rings — and, when a credit
// finds its ring full, applies the due head to the destination's output
// counters, as Settle would: it may run while other routers step (a
// sender's sink parks its events at once), but never concurrently with a
// step, a Settle or another PushDue of the destination.
// Everything else (SetSink, SetPhases, SizeScratch, Clone, Rebase) must
// happen with no step in flight.
type Core struct {
	shape

	// Per-network bindings (see Binding) and per-router engine hooks.
	env      *routing.Env
	recycle  func(*packet.Packet)
	recycleQ func(packet.Queue)
	nodeJob  []int32
	trace    []TraceFn
	notify   []func(LinkEvent)
	views    []View

	// Port bitmasks, maskWords words per router. inOcc/outOcc: bit p set iff
	// the port has packets buffered; arrPend/crdPend: bit p set iff the
	// port's arrival queue or credit ring is non-empty; starved: bit p set
	// iff the router's last link stage found output p idle with packets
	// queued and no head holding a packet of credit — the one state in
	// which a returning credit makes the router act (see PushDue). The
	// stages iterate set bits instead of scanning all ports — ascending bit
	// order preserves the ascending-port iteration the bit-identity
	// argument rests on.
	inOccMask   []uint64
	outOccMask  []uint64
	arrPendMask []uint64
	crdPendMask []uint64
	starved     []uint64

	// Per-port state, indexed by pi.
	inP  []inPort
	outP []outPort

	// Per-VC packet FIFOs, indexed by vi.
	inQ  []inQState
	outQ []outQState

	// Link transport, fed by PushDue: per input port an arrival queue, per
	// output port a credit ring, both indexed by pi. Events on one port
	// arrive in increasing-cycle order (the sender serialises them), so a
	// plain FIFO keeps them sorted.
	arrQ    []arrQueue
	crdData []crdEvent
	crdQ    []evRing
	// lost counts packets serialised onto unplugged ports (see Unplug).
	lost int

	// Per router, the due cycle of its earliest unapplied state-only event
	// (buffer release, credit, packet arrival: bookAt — the gate of Settle)
	// and of its earliest unapplied arrival alone (arrAt, see
	// EarliestExternal); math.MaxInt64 when there is none. Both are exact:
	// PushDue and the release insert fold into them, the pop loops of
	// settle recompute them from the queue and ring heads they stop at.
	bookAt []int64
	arrAt  []int64

	// Per-router state: arbitration RNG streams, accumulators, and the
	// router-local calendars of buffer releases and transfer completions
	// (windows of np entries into dueData).
	rnd      []rng.Source
	stats    []stats.Router
	jobStats [][]stats.Job // per-router windows into jobData; nil entries without job attribution
	jobLive  [][]int64     // per-router windows into liveData
	jobData  []stats.Job
	liveData []int64
	relDue   []dueQueue
	xferDue  []dueQueue
	dueData  []portDue

	// The run's phases (see SetPhases): cycles [warmup, total) are measured.
	// Read-only while a run steps, so every router derives its phase from the
	// cycle it is stepped at, wherever its group stands inside a window.
	warmup, total int64

	// Allocator scratch, one per concurrent stepper (see SizeScratch). Not
	// state: a clone neither copies nor resets it, and a retired Core's
	// serves the network restored into it.
	scratch []allocScratch
}

// NewCore builds and wires the routers of one network: ports, peers and
// per-link latencies go straight into the flat arrays. The state arrays are
// freshly allocated, so they already hold the zeros of an empty network and
// only initEmpty's words are written.
func NewCore(w Wiring) (*Core, error) {
	if w.Family != nil {
		return nil, errors.New("router: NewCore wires its own network; only a template borrows a family's")
	}
	c, err := NewTemplate(w)
	if err != nil {
		return nil, err
	}
	c.sizeState(false)
	c.initEmpty() // while the state arrays are still in cache
	c.bind(w.Binding)
	return c, nil
}

// NewTemplate is the part of NewCore an empty network cannot compute: the
// shape (wiring, port-class tables, arena sizes) and the per-router
// arbitration RNG streams. It allocates no state array. The result can only
// be cloned from, and Clone makes the destination the empty network — the
// state NewCore starts from — by zeroing it and running initEmpty. With a
// Family the wiring and the streams are the family's, shared, and what is
// left to build is what the configuration decides: the port-class tables
// and the credit arena's size.
func NewTemplate(w Wiring) (*Core, error) {
	topo, cfg, f := w.Topo, w.Cfg, w.Family
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f != nil && (f.topo != topo || f.inP != nil) {
		return nil, errors.New("router: a template's family must be a template over the same topology")
	}
	c := &Core{shape: shape{
		topo: topo, cfg: cfg, mech: w.Mech,
		nr: topo.NumRouters(), np: topo.NumPorts(),

		size:      cfg.PacketSize,
		pipeline:  int64(cfg.PipelineCycles),
		xbar:      int64(cfg.CrossbarCycles()),
		serial:    int64(cfg.SerialCycles()),
		perRouter: int64(cfg.PipelineCycles + cfg.CrossbarCycles() + cfg.SerialCycles()),
		capVC:     int32(cfg.OutputBufferPhits),
		outQCap:   int32(cfg.OutputBufferPhits / cfg.PacketSize),
		allocIter: cfg.AllocIterations,
		arb:       cfg.Arbitration,
		nJobs:     w.NumJobs,
	}}
	if c.np > math.MaxUint16+1 {
		return nil, fmt.Errorf("router: %d ports per router; a port index must fit 16 bits", c.np)
	}
	c.maskWords = (c.np + 63) >> 6
	c.initPortClasses()
	if f != nil {
		c.inW, c.outW, c.maxLat, c.lookahead = f.inW, f.outW, f.maxLat, f.lookahead
		c.rnd = f.rnd
	} else {
		if err := c.wire(w.Latency); err != nil {
			return nil, err
		}
		c.rnd = make([]rng.Source, c.nr)
		for r := range c.rnd {
			c.rnd[r] = *w.Rng.Split()
		}
	}
	c.crdTot = c.layoutCredits(nil)
	return c, nil
}

// initEmpty writes the words of the empty network that are not zero, bar
// the RNG streams, into state arrays that hold zeros (freshly allocated, or
// cleared by sizeState): the credit-ring layout, no pending event (bookAt,
// arrAt), and every downstream credit home (free, credits). This is the one
// definition of an empty network, for a build and for a restore from a
// template alike.
func (c *Core) initEmpty() {
	c.layoutCredits(c.crdQ)
	for r := range c.bookAt {
		c.bookAt[r], c.arrAt[r] = math.MaxInt64, math.MaxInt64
	}
	for r := 0; r < c.nr; r++ {
		for p, total := range c.downTotal {
			c.outP[r*c.np+p].free = total
			vi := c.vcBase(r, p)
			for vc := range c.nOutVC[p] {
				c.outQ[vi+int(vc)].credits = c.downCapVC[p]
			}
		}
	}
}

// initPortClasses fills the per-port-class constant tables.
func (c *Core) initPortClasses() {
	cfg := c.cfg
	np := c.np
	c.class = make([]topology.PortClass, np)
	c.vcOff = make([]int32, np)
	c.nInVC = make([]int32, np)
	c.inCapVC = make([]int32, np)
	c.nOutVC = make([]int32, np)
	c.downCapVC = make([]int32, np)
	c.downTotal = make([]int32, np)
	c.threshVC = make([]int32, np)
	c.inQCap = make([]int32, np)
	c.arrCap = make([]int32, np)
	c.crdCap = make([]int32, np)
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
		c.vcOff[p] = int32(c.vcs)
		c.vcs += int(c.nInVC[p])
		c.downTotal[p] = c.nOutVC[p] * c.downCapVC[p]
		c.threshVC[p] = int32(cfg.CongestionThreshold * float64(int32(cfg.OutputBufferPhits)+c.downCapVC[p]))
		c.inQCap[p] = c.inCapVC[p] / int32(cfg.PacketSize)
		c.arrCap[p] = c.nInVC[p] * c.inQCap[p]
		c.crdCap[p] = c.downTotal[p] / int32(cfg.PacketSize)
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
		if lat <= 0 || lat > math.MaxInt32 {
			return fmt.Errorf("router: latency model %q assigns latency %d, outside [1, %d] cycles, to link %d->%d",
				model.Name(), lat, math.MaxInt32, src, dst)
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

// fit returns s resliced to n elements when its capacity allows — cleared
// if zero is set, stale otherwise — and a fresh zeroed slice when not.
func fit[T any](s []T, n int, zero bool) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	if zero {
		clear(s)
	}
	return s
}

// sizeState sizes every state array to the shape, reusing whatever capacity
// the Core already owns: on a fresh Core everything is allocated zeroed, on
// a retired one (see Clone) the arrays that fit are resliced and — unless
// zero asks for the zeros of an empty network — hold stale values until the
// caller overwrites them. Arrays that every caller overwrites in full
// (bookAt, arrAt, rnd) and the per-router windows are never cleared, and
// neither is the credit-ring arena behind layoutCredits: a dead ring slot is
// never read before it is written.
func (c *Core) sizeState(zero bool) {
	nr, np, nj := c.nr, c.np, c.nJobs
	npp := nr * np
	c.inOccMask = fit(c.inOccMask, nr*c.maskWords, zero)
	c.outOccMask = fit(c.outOccMask, nr*c.maskWords, zero)
	c.arrPendMask = fit(c.arrPendMask, nr*c.maskWords, zero)
	c.crdPendMask = fit(c.crdPendMask, nr*c.maskWords, zero)
	c.starved = fit(c.starved, nr*c.maskWords, zero)
	c.inP = fit(c.inP, npp, zero)
	c.outP = fit(c.outP, npp, zero)
	c.inQ = fit(c.inQ, nr*c.vcs, zero)
	c.outQ = fit(c.outQ, nr*c.vcs, zero)
	c.arrQ = fit(c.arrQ, npp, zero)
	c.crdQ = fit(c.crdQ, npp, zero)
	c.crdData = fit(c.crdData, c.crdTot, false)
	c.bookAt = fit(c.bookAt, nr, false)
	c.arrAt = fit(c.arrAt, nr, false)
	c.rnd = fit(c.rnd, nr, false)
	c.stats = fit(c.stats, nr, zero)
	c.jobStats = fit(c.jobStats, nr, false)
	c.jobLive = fit(c.jobLive, nr, false)
	c.jobData = fit(c.jobData, nr*nj, zero)
	c.liveData = fit(c.liveData, nr*nj, zero)
	for r := 0; r < nr; r++ {
		c.jobStats[r], c.jobLive[r] = nil, nil
		if nj > 0 {
			c.jobStats[r] = c.jobData[r*nj : (r+1)*nj : (r+1)*nj]
			c.jobLive[r] = c.liveData[r*nj : (r+1)*nj : (r+1)*nj]
		}
	}
	// Calendars: empty, each in its own np-entry window of one arena.
	c.relDue = fit(c.relDue, nr, false)
	c.xferDue = fit(c.xferDue, nr, false)
	c.dueData = fit(c.dueData, 2*npp, false)
	for r := 0; r < nr; r++ {
		pos := 2 * r * np
		c.relDue[r] = dueQueue{q: c.dueData[pos : pos : pos+np]}
		c.xferDue[r] = dueQueue{q: c.dueData[pos+np : pos+np : pos+2*np]}
	}
	c.trace = fit(c.trace, nr, false)
	c.notify = fit(c.notify, nr, false)
	c.views = fit(c.views, nr, false)
	for r := range c.views {
		c.views[r] = View{c: c, r: int32(r)}
	}
}

// SizeScratch gives the Core one allocator scratch per concurrent stepper:
// StepRouter(r, now, w) works in scratch w, for w in [0, steppers). The
// engine calls it before a run's steppers start. Capacity is reused as in
// sizeState — the scratch outlives runs and, on a retired Core, restores —
// so a run with as many steppers as an earlier one on the same Core
// allocates nothing. Scratch is never read before it is written within one
// step, so stale contents are harmless, with the one exception of outCandN,
// which StepRouter expects all-zero (and a run that died mid-allocation may
// have left submissions behind).
func (c *Core) SizeScratch(steppers int) {
	np := c.np
	c.scratch = padded(c.scratch, steppers, false)
	for w := range c.scratch {
		s := &c.scratch[w]
		s.cand = padded(s.cand, c.vcs, false)
		s.candN = padded(s.candN, np, false)
		s.granted = padded(s.granted, np, false)
		s.candIn = padded(s.candIn, np, false)
		s.outCand = padded(s.outCand, np*np, false)
		s.outCandN = padded(s.outCandN, np, true)
		s.outTouched = padded(s.outTouched, np, false)
	}
}

// padded is fit for the allocator scratch: an array it allocates has
// scratchPad bytes of unused slack on both sides (its capacity ends where
// the trailing slack starts, so a reuse never reaches into it), and no
// other stepper's scratch shares a 128-byte block with it.
func padded[T any](s []T, n int, zero bool) []T {
	if cap(s) < n {
		var t T
		k := (scratchPad + int(unsafe.Sizeof(t)) - 1) / int(unsafe.Sizeof(t))
		return make([]T, n+2*k)[k : k+n : k+n]
	}
	return fit(s, n, zero)
}

// layoutCredits carves the credit rings out of their arena: one ring per
// wired output, with room for what the output's link can have in flight. An
// entry is the credit for one packet the port has sent and not been credited
// for, so no ring needs more than crdCap, what the downstream buffer holds.
// Nor more than the credits that are not yet provably due: PushDue applies
// the head of a full ring once it is (see creditSlack), so every entry it
// keeps was sent less than lat + slack cycles before the newest, and the
// downstream input port returns at most one credit per crossbar time —
// ⌊(lat+slack)/xbar⌋ + 1 of them. A latency model may give every cable a
// latency of its own, so the bound is per output, not per port class. With
// rings it writes each ring's place, not its contents — an empty ring is the
// zero head and length the record already holds; without, it only counts
// the arena's slots. It returns their number.
func (c *Core) layoutCredits(rings []evRing) int {
	var off int32
	for base := 0; base < len(c.outW); base += c.np {
		for p, owed := range c.crdCap {
			w := &c.outW[base+p]
			if w.peer < 0 {
				continue
			}
			n := int32(min(int64(owed), (int64(w.lat)+c.creditSlack(p))/c.xbar+1))
			if rings != nil {
				rings[base+p].off, rings[base+p].qcap = off, n
			}
			off += n
		}
	}
	return int(off)
}

// creditSlack bounds how far the router of output p can lag behind the
// sender of a credit pushed to it: a credit sent at cycle t is pushed while
// the receiver may still be short of t, but every read of the receiver after
// the push settles it to at least t − slack. A local link joins two routers
// of one group, and a group's routers advance in lockstep: 1. A global link
// joins two groups, and inside a time window — at most one lookahead long —
// the receiver's group may not have started the window its sender is ending
// (events that cross workers wait for the barrier, later still): the
// lookahead. The slack comes from the port class, not from the peer's group,
// which Unplug forgets.
func (c *Core) creditSlack(p int) int64 {
	if c.class[p] == topology.GlobalPort {
		return c.lookahead
	}
	return 1
}

// bind attaches the Core to its network's hooks and clears the engine's.
func (c *Core) bind(b Binding) {
	c.env = b.Env
	c.recycle, c.recycleQ = b.Recycle, b.RecycleQueue
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
// allocator scratch is not state and is not copied (into keeps its own, see
// SizeScratch). into, when non-nil, is a retired Core of any shape: it is
// overwritten and returned, each of its arrays resliced where its capacity
// covers c's shape and reallocated where not — so a Core retired from one
// mechanism's network serves a restore of another's, and recycling within
// one shape allocates nothing beyond the live packets; the packets the
// retired run left behind go back through into's own RecycleQueue hook, a
// whole queue at a time. When c is a template (see NewTemplate) there is no
// state to copy: the destination is reset to the empty network instead — its
// reused state arrays cleared, fresh ones left as allocated, then initEmpty
// and c's RNG streams. Both Cores must be between cycles.
func (c *Core) Clone(into *Core, b Binding) *Core {
	d := into
	if d == nil {
		d = &Core{}
	} else {
		// Hand the retired run's packets back to its network's free list —
		// the one the clone will generate from — while d's old shape still
		// finds them: a queue at a time, still linked, so no packet is
		// touched here.
		d.eachQueue(func(_, _ int, q *packet.Queue) {
			d.recycleQ(*q)
			*q = packet.Queue{}
		})
	}
	d.shape = c.shape
	d.lost = 0
	if c.inP == nil { // a template: no state to copy
		d.sizeState(true)
		d.initEmpty()
		copy(d.rnd, c.rnd)
		d.bind(b)
		return d
	}
	d.sizeState(false)
	d.bind(b)

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
	// The ring records were copied, so every live credit sits at the same
	// arena position in both Cores; dead slots need no copy.
	c.eachMasked(c.crdPendMask, func(pi, _ int) {
		q := &c.crdQ[pi]
		for k, h := int32(0), q.head; k < q.qlen; k++ {
			d.crdData[q.off+h] = c.crdData[q.off+h]
			if h++; h == q.qcap {
				h = 0
			}
		}
	})
	// The queue records were copied too, and still point at c's packets:
	// every non-empty one gets copies of its own.
	c.eachQueue(func(kind, i int, q *packet.Queue) { *d.queue(kind, i) = q.Clone() })
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
	// In-flight packets carry their arrival cycle, so this shifts it too.
	c.eachQueue(func(_, _ int, q *packet.Queue) { q.Each(func(p *packet.Packet) { p.Rebase(delta) }) })
}

// vcBase returns the index of VC 0 of port p at router r in the per-VC
// arrays; the port's VCs follow it.
func (c *Core) vcBase(r, p int) int { return r*c.vcs + int(c.vcOff[p]) }

// Kinds of packet queue, as eachQueue and queue name them.
const (
	kindIn  = iota // an input VC, indexed by vi
	kindOut        // an output VC, indexed by vi
	kindArr        // the packets in flight towards an input port, indexed by pi
)

// queue addresses queue i of the given kind.
func (c *Core) queue(kind, i int) *packet.Queue {
	switch kind {
	case kindIn:
		return &c.inQ[i].q
	case kindOut:
		return &c.outQ[i].q
	default:
		return &c.arrQ[i].q
	}
}

// eachQueue calls fn with every non-empty packet queue of the Core, its kind
// and its index (see queue): input and output VCs, and the packets in flight
// towards each input port. The port bitmasks name the ports with packets,
// so the walk costs O(live), not O(network).
func (c *Core) eachQueue(fn func(kind, i int, q *packet.Queue)) {
	vcs := func(kind int, nVC []int32) func(pi, p int) {
		return func(pi, p int) {
			vbase := c.vcBase(pi/c.np, p)
			for vi := vbase; vi < vbase+int(nVC[p]); vi++ {
				if q := c.queue(kind, vi); q.Front() != nil {
					fn(kind, vi, q)
				}
			}
		}
	}
	c.eachMasked(c.inOccMask, vcs(kindIn, c.nInVC))
	c.eachMasked(c.outOccMask, vcs(kindOut, c.nOutVC))
	c.eachMasked(c.arrPendMask, func(pi, _ int) { fn(kindArr, pi, &c.arrQ[pi].q) })
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
// configurations cannot deadlock). The wiring is shared with clones, and a
// template's with every template of its family (Wiring.Family), so only
// ever unplug a network NewCore built — it owns its wiring — and that will
// not be snapshotted.
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

// PushDue parks a link event at the destination port of router r — a packet
// in its arrival queue, a credit in its ring — and returns the cycle at
// which r has to step because of it, or -1 when the event cannot make r act:
// a packet can be allocated once it has crossed the input pipeline (ev.At +
// pipeline); a credit lets a starved output send (ev.At), and on any other
// output it only moves a counter. The event itself is applied by Settle — at
// r's next step or the next time anyone reads r's state, whichever comes
// first. The one exception is a credit that finds its ring full: the ring's
// head is then provably due — r's next read settles at least to the credit's
// send cycle less creditSlack, and the head fell due by then — so PushDue
// applies it at once, which no reader can tell from Settle applying it (the
// settle gate bookAt stays at or below the head's cycle, so the next Settle
// still reports a change). A full ring whose head is not due breaks the
// bound layoutCredits sizes the rings by and panics. The engine must call
// PushDue — between router r's steps — for every LinkEvent whose Router
// field names r and wake r no later than the cycle returned; settle panics
// on an event whose step was slept through.
func (c *Core) PushDue(r int, ev LinkEvent) int64 {
	pi := r*c.np + ev.port
	word, bit := r*c.maskWords+ev.port>>6, uint64(1)<<(uint(ev.port)&63)
	if ev.at < c.bookAt[r] {
		c.bookAt[r] = ev.at
	}
	if ev.Credit {
		q := &c.crdQ[pi]
		if q.qlen == q.qcap && q.qlen > 0 {
			// Due by the receiver's next read: at most the send cycle less the slack.
			due := ev.at - int64(c.outW[pi].lat) - c.creditSlack(ev.port)
			if c.crdData[q.off+q.head].at() <= due {
				c.popCredit(r, ev.port, due-1)
			}
		}
		i := q.put()
		if i < 0 {
			c.linkEventRingFull(r, ev)
		}
		c.crdData[i] = newCrdEvent(ev.at, ev.pvc)
		c.crdPendMask[word] |= bit
		if c.starved[word]&bit != 0 {
			return ev.at
		}
		return -1
	}
	q := &c.arrQ[pi]
	if q.n == c.arrCap[ev.port] {
		c.linkEventRingFull(r, ev)
	}
	ev.pkt.EnqueuedAt = ev.at
	q.q.Push(ev.pkt)
	q.n++
	c.arrPendMask[word] |= bit
	if ev.at < c.arrAt[r] {
		c.arrAt[r] = ev.at
	}
	return ev.at + c.pipeline
}

// linkEventRingFull reports an event its port has no room for: more packets
// in flight towards it than the credit protocol allows, or a credit ring
// full of credits not yet due — more than its link can have in flight (see
// layoutCredits).
func (c *Core) linkEventRingFull(r int, ev LinkEvent) {
	panic(fmt.Sprintf("router %d: link event ring full on port %d (credit %v; the sender broke the credit protocol)", r, ev.port, ev.Credit))
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
		n += int(c.arrQ[i].n)
	}
	return n
}

// InjectionBacklog returns the packets queued at router r's injection
// port of the node with per-router index nodeIdx.
func (c *Core) InjectionBacklog(r, nodeIdx int) int {
	p := c.topo.Params()
	port := p.A - 1 + p.H + nodeIdx
	return int(c.inQ[c.vcBase(r, port)].qlen)
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
	port := c.topo.NodePort(int(p.Src))
	vi := c.vcBase(r, port)
	c.inQPush(vi, port, p)
	c.inQ[vi].occ += int32(p.Size)
	c.inP[r*c.np+port].qTotal++
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
