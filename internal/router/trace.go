package router

import "dragonfly/internal/packet"

// TraceKind labels a traced router event.
type TraceKind uint8

const (
	// TraceGrant: a switch allocation was granted; port/vc identify the
	// output the packet will take.
	TraceGrant TraceKind = iota
	// TraceLinkSend: the packet started serialising onto the output link
	// (or the ejection port for deliveries).
	TraceLinkSend
	// TraceDeliver: the packet reached its destination node.
	TraceDeliver
)

// String returns a short event name.
func (k TraceKind) String() string {
	switch k {
	case TraceGrant:
		return "grant"
	case TraceLinkSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	default:
		return "trace(?)"
	}
}

// TraceFn observes router events for debugging and path reconstruction.
// It runs on the simulation hot path: keep it cheap, and make it
// concurrency-safe when the parallel engine is in use (events for one
// router always come from one goroutine, but different routers may trace
// concurrently).
type TraceFn func(now int64, kind TraceKind, p *packet.Packet, routerID, port, vc int)
