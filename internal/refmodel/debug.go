package refmodel

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/topology"
)

// Occupancy is a diagnostic snapshot of a router's buffer state, used by
// tests to localise congestion or stalls (dfsim -debug reads the Core's).
type Occupancy struct {
	// InputPhits per port class: phits held in input VC buffers.
	InputLocal, InputGlobal, InputInjection int
	// OutputPhits per port class: phits in output buffers (incl. in-flight
	// crossbar reservations).
	OutputLocal, OutputGlobal, OutputEjection int
	// CreditsInUse per output class: downstream phits not yet credited.
	CreditsLocal, CreditsGlobal int
	// PendingTransfers counts crossbar transfers in progress.
	PendingTransfers int
}

// Snapshot returns the router's current buffer occupancy.
func (r *Router) Snapshot() Occupancy {
	var s Occupancy
	for i := range r.inputs {
		in := &r.inputs[i]
		occ := 0
		for v := range in.vcs {
			occ += in.vcs[v].occ
		}
		switch in.class {
		case topology.LocalPort:
			s.InputLocal += occ
		case topology.GlobalPort:
			s.InputGlobal += occ
		default:
			s.InputInjection += occ
		}
		if in.pending.active {
			s.PendingTransfers++
		}
	}
	for i := range r.outputs {
		o := &r.outputs[i]
		switch o.class {
		case topology.LocalPort:
			s.OutputLocal += o.occ
			s.CreditsLocal += o.downTotal - o.creditsFree
		case topology.GlobalPort:
			s.OutputGlobal += o.occ
			s.CreditsGlobal += o.downTotal - o.creditsFree
		default:
			s.OutputEjection += o.occ
		}
	}
	return s
}

// StateVector appends the router's complete dynamic state to v and returns
// it: per-port busy times and round-robin pointers, the pending crossbar
// transfer, per-VC occupancies and downstream credits, and the identity and
// routing state of every queued packet. Two routers that simulated the same
// history flatten to equal vectors; router.Core.StateVector emits the same
// words in the same order, which is what the cross-implementation
// state-equivalence tests (internal/sim) compare and pinned_test.go hashes.
// Link contents are deliberately excluded: packets in flight on a link live
// in layer-specific structures (the oracle's ring slots, the Core's event
// rings) and are compared after arrival instead.
func (r *Router) StateVector(v []int64) []int64 {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	pkt := func(p *packet.Packet) {
		v = append(v, int64(p.ID), int64(p.Src), int64(p.Dst), int64(p.VC),
			int64(p.Phase), int64(p.IntNode), int64(p.IntGroup),
			b2i(p.Misrouted), b2i(p.LocalMisrouted), b2i(p.SrcDecided),
			int64(p.LocalHops), int64(p.GlobalHops),
			p.ReadyAt, p.EnqueuedAt, p.GenTime, p.InjectTime,
			p.LinkLat, p.WaitInj, p.WaitLocal, p.WaitGlobal)
	}
	for i := range r.inputs {
		in := &r.inputs[i]
		v = append(v, in.busyUntil, int64(in.rrVC), int64(in.qTotal))
		pd := &in.pending
		v = append(v, b2i(pd.active), pd.done, int64(pd.vcIdx),
			int64(pd.outPort), int64(pd.outVC), int64(pd.action.Kind),
			int64(pd.action.Group))
		for vc := range in.vcs {
			q := &in.vcs[vc]
			v = append(v, int64(q.occ), int64(q.len()))
			for k := q.head; k < len(q.pkts); k++ {
				pkt(q.pkts[k])
			}
		}
	}
	for i := range r.outputs {
		o := &r.outputs[i]
		v = append(v, o.linkBusyUntil, o.crossbarBusyUntil, o.releaseAt,
			int64(o.releasePhits), int64(o.releaseVC), int64(o.occ),
			int64(o.qTotal), int64(o.creditsFree), int64(o.rr), int64(o.rrVC))
		for vc := range o.queues {
			v = append(v, int64(o.occVC[vc]))
			if o.credits != nil {
				v = append(v, int64(o.credits[vc]))
			}
			for k := o.qheads[vc]; k < len(o.queues[vc]); k++ {
				pkt(o.queues[vc][k])
			}
		}
	}
	return v
}
