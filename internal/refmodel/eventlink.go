package refmodel

import (
	"fmt"
	"sync/atomic"

	"dragonfly/internal/packet"
)

// EventLink is the event-driven Link implementation: each channel is a
// small ring of (cycle, payload) events sized by the channel's in-flight
// capacity, not by the latency window.
//
// The sizing argument: an event pushed with arrival cycle `at` lives in the
// queue from the push until it is popped at `at`, i.e. at most
// latency+spacing cycles (packets are pushed at send+serial+latency with
// sends serialised ≥ serial cycles apart; credits at complete+latency with
// completions ≥ crossbar cycles apart). Successive pushes on one channel
// are at least `spacing` cycles apart, so at most
//
//	floor(latency/spacing) + 2
//
// events are ever in flight at once. A RingLink instead allocates
// O(latency+horizon) slots per channel — mostly empty, and frozen at build
// time. EventLink capacity is a handful of entries per channel (e.g. 13
// packet slots for the Table I global links instead of a 128-slot ring),
// which is what makes per-link runtime latencies affordable at the h=6
// scale.
//
// Concurrency follows the RingLink discipline: tails are sender-owned,
// heads receiver-owned, both atomic so the opposite side can read them for
// emptiness/occupancy checks (a one-cycle-stale value is harmless: a
// same-cycle push is never same-cycle due, and the capacity check keeps
// two spare slots of slack). Payloads are written before the tail is
// published and read after the tail is observed.
type EventLink struct {
	latency int

	pmask   int64 // packet ring size - 1 (power of two)
	pkts    []pktEvent
	pktHead atomic.Int64
	pktTail atomic.Int64

	cmask   int64 // credit ring size - 1 (power of two)
	crds    []crdEvent
	crdHead atomic.Int64
	crdTail atomic.Int64
}

type pktEvent struct {
	at int64
	p  *packet.Packet
}

type crdEvent struct {
	at    int64
	phits int32
	vc    int32
}

// eventCap returns the ring capacity for a channel with the given minimum
// event spacing: the in-flight bound plus slack for the sender's
// possibly-stale view of the receiver head.
func eventCap(latency, spacing int) int64 {
	if spacing < 1 {
		spacing = 1
	}
	need := latency/spacing + 4
	size := 1
	for size < need {
		size <<= 1
	}
	return int64(size)
}

// NewEventLink builds an event-queue link with the given propagation
// latency. pktSpacing and crdSpacing are the minimum cycles between
// successive pushes on the packet and credit channels — the packet
// serialisation time and the crossbar occupancy under the router model —
// and size the rings. Spacings below 1 are treated as 1 (one event per
// cycle, the hard channel invariant).
func NewEventLink(latency, pktSpacing, crdSpacing int) *EventLink {
	if latency <= 0 {
		panic("router: link latency must be positive")
	}
	pcap := eventCap(latency, pktSpacing)
	ccap := eventCap(latency, crdSpacing)
	return &EventLink{
		latency: latency,
		pmask:   pcap - 1,
		pkts:    make([]pktEvent, pcap),
		cmask:   ccap - 1,
		crds:    make([]crdEvent, ccap),
	}
}

// Latency implements Link.
func (l *EventLink) Latency() int { return l.latency }

// PushPacket implements Link. It panics on a full ring (the spacing
// promise of NewEventLink was broken) or on non-increasing arrival cycles.
func (l *EventLink) PushPacket(at int64, p *packet.Packet) {
	tail := l.pktTail.Load() // sender-owned
	if tail-l.pktHead.Load() > l.pmask {
		panic(fmt.Sprintf("router: event link packet ring full at cycle %d (spacing promise broken)", at))
	}
	if tail != l.pktHead.Load() && l.pkts[(tail-1)&l.pmask].at >= at {
		panic(fmt.Sprintf("router: out-of-order packet push at cycle %d", at))
	}
	l.pkts[tail&l.pmask] = pktEvent{at: at, p: p}
	l.pktTail.Store(tail + 1)
}

// PopPacket implements Link. It panics when the head event's cycle has
// already passed: the receiver slept through an arrival, which the
// scheduler contract forbids.
func (l *EventLink) PopPacket(at int64) *packet.Packet {
	head := l.pktHead.Load() // receiver-owned
	if head == l.pktTail.Load() {
		return nil
	}
	ev := &l.pkts[head&l.pmask]
	if ev.at > at {
		return nil
	}
	if ev.at < at {
		panic(fmt.Sprintf("router: packet arrival at cycle %d popped at cycle %d (receiver slept through it)", ev.at, at))
	}
	p := ev.p
	ev.p = nil // release the reference for the GC; the slot stays ours until head advances
	l.pktHead.Store(head + 1)
	return p
}

// EarliestPacket implements Link.
func (l *EventLink) EarliestPacket() int64 {
	head := l.pktHead.Load()
	if head == l.pktTail.Load() {
		return -1
	}
	return l.pkts[head&l.pmask].at
}

// PushCredit implements Link. Panic conditions mirror PushPacket.
func (l *EventLink) PushCredit(at int64, vc, phits int) {
	tail := l.crdTail.Load() // sender-owned
	if tail-l.crdHead.Load() > l.cmask {
		panic(fmt.Sprintf("router: event link credit ring full at cycle %d (spacing promise broken)", at))
	}
	if tail != l.crdHead.Load() && l.crds[(tail-1)&l.cmask].at >= at {
		panic(fmt.Sprintf("router: out-of-order credit push at cycle %d", at))
	}
	l.crds[tail&l.cmask] = crdEvent{at: at, phits: int32(phits), vc: int32(vc)}
	l.crdTail.Store(tail + 1)
}

// PopCredit implements Link, panicking on a slept-through arrival like
// PopPacket.
func (l *EventLink) PopCredit(at int64) (vc, phits int) {
	head := l.crdHead.Load() // receiver-owned
	if head == l.crdTail.Load() {
		return 0, 0
	}
	ev := l.crds[head&l.cmask]
	if ev.at > at {
		return 0, 0
	}
	if ev.at < at {
		panic(fmt.Sprintf("router: credit arrival at cycle %d popped at cycle %d (receiver slept through it)", ev.at, at))
	}
	l.crdHead.Store(head + 1)
	return int(ev.vc), int(ev.phits)
}

// EarliestCredit implements Link.
func (l *EventLink) EarliestCredit() int64 {
	head := l.crdHead.Load()
	if head == l.crdTail.Load() {
		return -1
	}
	return l.crds[head&l.cmask].at
}

// InFlight implements Link; O(1), unlike the ring scan.
func (l *EventLink) InFlight() int {
	return int(l.pktTail.Load() - l.pktHead.Load())
}
