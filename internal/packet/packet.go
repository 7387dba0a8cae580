// Package packet defines the unit of traffic exchanged through the
// simulated Dragonfly network and the routing state it carries.
//
// The simulator is packet-atomic: an 8-phit packet moves between buffers as
// one unit but charges exact bandwidth occupancy (serialisation cycles on
// links, crossbar cycles inside routers) and buffer space in phits, which is
// what virtual cut-through switching requires. Each packet carries the
// per-hop bookkeeping needed by the adaptive routing mechanisms (hop counters
// that double as virtual-channel indices) and by the latency-breakdown
// statistics of the paper's Figure 3.
package packet

import "fmt"

// Phase is the macroscopic routing state of a packet.
type Phase uint8

const (
	// PhaseMinimal: the packet heads minimally towards its destination.
	PhaseMinimal Phase = iota
	// PhaseToNode: Valiant node-level misrouting (oblivious and
	// source-adaptive mechanisms). The packet heads minimally towards the
	// intermediate node IntNode; on reaching that node's router it
	// reverts to PhaseMinimal.
	PhaseToNode
	// PhaseToGroup: in-transit global misrouting (PAR/OLM style). The
	// packet heads towards intermediate group IntGroup; on entering that
	// group it reverts to PhaseMinimal.
	PhaseToGroup
)

// String returns a short lowercase phase name.
func (p Phase) String() string {
	switch p {
	case PhaseMinimal:
		return "minimal"
	case PhaseToNode:
		return "to-node"
	case PhaseToGroup:
		return "to-group"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Packet is one simulated network packet. Packets are created by the
// injection machinery, owned by exactly one buffer at a time, and recycled
// after delivery.
type Packet struct {
	// next links the packet into the one Queue that holds it. It is the only
	// pointer in the struct and comes first, so the collector scans one word
	// of a packet, not all of it.
	next *Packet

	ID   uint64
	Src  int // source node
	Dst  int // destination node
	Size int // phits

	// Job is the job index the packet belongs to, stamped at generation
	// time (-1 outside multi-job runs). Attribution must travel with the
	// packet rather than be re-derived from its source node at delivery:
	// under a dynamic scheduler the source node may have been freed and
	// recycled to another job while the packet was in flight.
	Job int32

	// Routing state.
	Phase          Phase
	IntNode        int  // Valiant intermediate node; -1 when unset
	IntGroup       int  // in-transit intermediate group; -1 when unset
	Misrouted      bool // a global misroute has been committed
	LocalMisrouted bool // a local misroute was taken in the current group
	SrcDecided     bool // source-adaptive decision already taken

	// Hop counters; they double as the next VC index per port class,
	// which makes the increasing-VC deadlock-avoidance scheme explicit.
	LocalHops  int
	GlobalHops int

	// VC the packet travels on over the link it is currently queued for
	// (assigned at switch allocation, consumed at the downstream input).
	VC int

	// Timing (cycles).
	GenTime     int64 // creation at the source node
	InjectTime  int64 // won injection allocation at the source router
	DeliverTime int64 // handed to the destination node

	// Minimal-path shape, captured at creation for the latency breakdown.
	MinLocal  int
	MinGlobal int
	// MinLinkLat is the summed propagation latency of the links on the
	// unique minimal path, captured at creation. With uniform link
	// latencies it equals MinLocal*local + MinGlobal*global; with a
	// heterogeneous latency model it prices the actual cables.
	MinLinkLat int64
	// LinkLat accumulates the propagation latency of every link the packet
	// actually traverses, so the misroute component of the latency
	// breakdown charges real per-hop costs rather than class constants.
	LinkLat int64

	// Accumulated queueing delays, split the way Figure 3 splits them.
	WaitInj    int64 // waiting in the injection queue
	WaitLocal  int64 // waiting in/for local transit queues
	WaitGlobal int64 // waiting in/for global transit queues

	// ReadyAt is the cycle the packet finishes the router pipeline at its
	// current input buffer and may request the switch.
	ReadyAt int64
	// EnqueuedAt is the cycle the packet entered its current queue
	// (input VC or output buffer); used to attribute waiting time. While
	// the packet crosses a link it is the cycle it arrives at the far end.
	EnqueuedAt int64
}

// Queue is a FIFO of packets linked through the packets themselves: a
// packet sits in at most one queue at a time, so a queue costs two words
// however long it gets, and holding a packet costs nothing beyond it. The
// zero Queue is empty.
type Queue struct{ head, tail *Packet }

// Front returns the oldest packet, or nil when the queue is empty.
func (q *Queue) Front() *Packet { return q.head }

// Push appends p, which must not sit in any queue.
func (q *Queue) Push(p *Packet) {
	p.next = nil
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// Pop removes and returns the oldest packet; the queue must not be empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	return p
}

// Unchain cuts p off the packets linked after it — the rest of a queue that
// was handed over whole, from its head — and returns the first of them, or
// nil.
func (p *Packet) Unchain() *Packet {
	rest := p.next
	p.next = nil
	return rest
}

// Each calls fn for every packet, oldest first; fn must leave the queue
// alone.
func (q *Queue) Each(fn func(*Packet)) {
	for p := q.head; p != nil; p = p.next {
		fn(p)
	}
}

// Clone returns a queue of deep copies of q's packets, in q's order.
func (q *Queue) Clone() Queue {
	var d Queue
	for p := q.head; p != nil; p = p.next {
		cp := *p
		d.Push(&cp)
	}
	return d
}

// Reset clears a recycled packet for reuse.
func (p *Packet) Reset() {
	*p = Packet{IntNode: -1, IntGroup: -1, Job: -1}
}

// TotalLatency returns delivery latency in cycles (delivery - generation).
// It is only meaningful after delivery.
func (p *Packet) TotalLatency() int64 { return p.DeliverTime - p.GenTime }

// Rebase shifts every absolute-cycle field delta cycles into the past, so a
// packet captured at cycle W of one run is valid at cycle 0 of a restored
// run. Differences between fields — the latency components — are preserved
// exactly; fields not yet assigned (InjectTime/DeliverTime before those
// events) go negative and are overwritten at the event as usual.
func (p *Packet) Rebase(delta int64) {
	p.GenTime -= delta
	p.InjectTime -= delta
	p.DeliverTime -= delta
	p.ReadyAt -= delta
	p.EnqueuedAt -= delta
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d %v l%d g%d", p.ID, p.Src, p.Dst, p.Phase, p.LocalHops, p.GlobalHops)
}

// Action describes the routing-state change to apply if (and only if) a
// requested switch allocation is granted. Routing mechanisms return Actions
// instead of mutating packets so that a denied request has no side effects.
type ActionKind uint8

const (
	// ActionNone leaves the routing state unchanged.
	ActionNone ActionKind = iota
	// ActionMisrouteToGroup commits an in-transit global misroute towards
	// Action.Group.
	ActionMisrouteToGroup
	// ActionLocalMisroute commits an opportunistic local misroute inside
	// the current group.
	ActionLocalMisroute
)

// Action is the deferred routing-state mutation attached to a switch
// request.
type Action struct {
	Kind  ActionKind
	Group int // intermediate group for ActionMisrouteToGroup
}

// Apply mutates the packet according to the action. It is called by the
// router when the corresponding request wins allocation.
func (a Action) Apply(p *Packet) {
	switch a.Kind {
	case ActionNone:
	case ActionMisrouteToGroup:
		p.Phase = PhaseToGroup
		p.IntGroup = a.Group
		p.Misrouted = true
	case ActionLocalMisroute:
		p.LocalMisrouted = true
	}
}
