package refmodel

import (
	"fmt"
	"sync/atomic"

	"dragonfly/internal/packet"
)

// RingLink is a unidirectional channel between an output port and the
// input port of a neighbouring router, together with the reverse credit
// channel — the seed's link, and the oracle's only transport. Both
// channels are time-indexed ring buffers sized by latency+horizon: the
// sender writes events at future cycles, the receiver consumes the slot of
// the current cycle.
//
// The serialisation and latency rules guarantee at most one event per
// cycle per channel and strictly increasing arrival cycles per channel, and
// sender and receiver always touch state at least one cycle apart, so a
// link may be shared by two routers stepped concurrently without locks
// (densePar does). Slots are addressed modulo the ring size, so every
// event MUST be popped at exactly the cycle it was scheduled for — a
// receiver that skipped an arrival would later read a stale slot or make
// the sender panic on a slot collision. The dense engines step every
// router every cycle and satisfy this trivially.
type RingLink struct {
	latency int
	mask    int64 // ring size - 1 (power of two, so slot = cycle & mask)

	pkts    []*packet.Packet
	credits []creditEvent

	// Pending-event time queues: arrival cycles in push order (senders
	// emit in strictly increasing time, which PushPacket/PushCredit check
	// against the newest entry). The tails are sender-owned, the heads
	// receiver-owned; the opposite side only reads them for emptiness
	// checks, where a one-cycle-stale value is harmless (same-cycle pushes
	// are never same-cycle due), so atomic counters suffice — no locks.
	pktT    []int64
	pktHead atomic.Int64
	pktTail atomic.Int64
	crdT    []int64
	crdHead atomic.Int64
	crdTail atomic.Int64
}

type creditEvent struct {
	phits int32
	vc    int32
}

// NewLink builds a ring link with the given propagation latency. horizon
// must be at least the packet serialisation time.
func NewLink(latency, horizon int) *RingLink {
	if latency <= 0 {
		panic("router: link latency must be positive")
	}
	size := 1
	for size < latency+horizon+2 {
		size <<= 1 // power of two: slot indexing by mask, not division
	}
	return &RingLink{
		latency: latency,
		mask:    int64(size - 1),
		pkts:    make([]*packet.Packet, size),
		credits: make([]creditEvent, size),
		pktT:    make([]int64, size),
		crdT:    make([]int64, size),
	}
}

// Latency returns the propagation latency in cycles.
func (l *RingLink) Latency() int { return l.latency }

// PushPacket schedules p to arrive at cycle at. Pushes on one link must use
// strictly increasing arrival cycles — automatic for a serializing sender.
// It panics if the slot is occupied or time order is violated: either
// would mean the sender broke the serialisation rule.
func (l *RingLink) PushPacket(at int64, p *packet.Packet) {
	idx := at & l.mask
	if l.pkts[idx] != nil {
		panic(fmt.Sprintf("router: packet slot collision at cycle %d", at))
	}
	tail := l.pktTail.Load() // sender-owned
	if tail != l.pktHead.Load() && l.pktT[(tail-1)&l.mask] >= at {
		panic(fmt.Sprintf("router: out-of-order packet push at cycle %d", at))
	}
	l.pkts[idx] = p
	l.pktT[tail&l.mask] = at
	l.pktTail.Store(tail + 1)
}

// PopPacket returns the packet arriving at cycle at, or nil. An idle link
// answers from the header alone (the pending count shares the mask's cache
// line), without touching the slot ring.
func (l *RingLink) PopPacket(at int64) *packet.Packet {
	head := l.pktHead.Load() // receiver-owned
	if head == l.pktTail.Load() {
		return nil
	}
	idx := at & l.mask
	p := l.pkts[idx]
	if p == nil {
		return nil
	}
	l.pkts[idx] = nil
	l.pktHead.Store(head + 1) // ordered arrivals: the popped event is the head
	return p
}

// PushCredit schedules a credit of phits for vc to arrive upstream at cycle
// at. Like PushPacket, arrival cycles must be strictly increasing per
// link; it panics on slot collision or time-order violation.
func (l *RingLink) PushCredit(at int64, vc, phits int) {
	idx := at & l.mask
	if l.credits[idx].phits != 0 {
		panic(fmt.Sprintf("router: credit slot collision at cycle %d", at))
	}
	tail := l.crdTail.Load() // sender-owned
	if tail != l.crdHead.Load() && l.crdT[(tail-1)&l.mask] >= at {
		panic(fmt.Sprintf("router: out-of-order credit push at cycle %d", at))
	}
	l.credits[idx] = creditEvent{phits: int32(phits), vc: int32(vc)}
	l.crdT[tail&l.mask] = at
	l.crdTail.Store(tail + 1)
}

// PopCredit returns the credit arriving at cycle at, or (0,0). Like
// PopPacket, an idle link answers from the header alone.
func (l *RingLink) PopCredit(at int64) (vc, phits int) {
	head := l.crdHead.Load() // receiver-owned
	if head == l.crdTail.Load() {
		return 0, 0
	}
	idx := at & l.mask
	ev := l.credits[idx]
	if ev.phits == 0 {
		return 0, 0
	}
	l.credits[idx] = creditEvent{}
	l.crdHead.Store(head + 1) // ordered arrivals: the popped event is the head
	return int(ev.vc), int(ev.phits)
}

// InFlight counts packets currently travelling on the link, for
// conservation checks in tests; O(size).
func (l *RingLink) InFlight() int {
	n := 0
	for _, p := range l.pkts {
		if p != nil {
			n++
		}
	}
	return n
}
