package router

import (
	"fmt"
	"strings"

	"dragonfly/internal/packet"
	"dragonfly/internal/topology"
)

// View is one router's slice of a Core: the routing.RouterView the
// mechanisms decide against, and the per-router face debug dumps inspect a
// router through (everything else addresses routers by index on the Core).
type View struct {
	c *Core
	r int32
}

// RouterID implements routing.RouterView.
func (v *View) RouterID() int { return int(v.r) }

// OutputCongested implements routing.RouterView.
func (v *View) OutputCongested(port, vc int) bool {
	c := v.c
	s := &c.outQ[c.vcBase(int(v.r), port)+vc]
	used := s.occVC
	if cap := c.downCapVC[port]; cap > 0 {
		used += cap - s.credits
	}
	return used > c.threshVC[port]
}

// LinkLoad implements routing.RouterView.
func (v *View) LinkLoad(port int) int { return v.c.OutputUsed(int(v.r), port) }

// CanAbsorb implements routing.RouterView.
func (v *View) CanAbsorb(port, vc int) bool {
	c := v.c
	s := &c.outQ[c.vcBase(int(v.r), port)+vc]
	if s.occVC+int32(c.size) > c.capVC {
		return false
	}
	if c.downCapVC[port] == 0 {
		return true
	}
	return s.credits >= int32(c.size)
}

// Occupancy is a diagnostic snapshot of a router's buffer state, used by
// tests and the dfsim -debug flag to localise congestion or stalls.
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
func (v *View) Snapshot() Occupancy {
	c := v.c
	var s Occupancy
	for p := 0; p < c.np; p++ {
		pi := int(v.r)*c.np + p
		occ := 0
		for vc := 0; vc < int(c.nInVC[p]); vc++ {
			occ += int(c.inQ[c.vcBase(int(v.r), p)+vc].occ)
		}
		out := int(c.outP[pi].occ)
		inUse := int(c.downTotal[p] - c.outP[pi].free)
		switch c.class[p] {
		case topology.LocalPort:
			s.InputLocal += occ
			s.OutputLocal += out
			s.CreditsLocal += inUse
		case topology.GlobalPort:
			s.InputGlobal += occ
			s.OutputGlobal += out
			s.CreditsGlobal += inUse
		default:
			s.InputInjection += occ
			s.OutputEjection += out
		}
		if c.inP[pi].pend.active {
			s.PendingTransfers++
		}
	}
	return s
}

// StateVector appends router r's complete dynamic state to v and returns
// it: per-port busy times and round-robin pointers, the pending crossbar
// transfer, per-VC occupancies and downstream credits, and the identity and
// routing state of every queued packet — word for word the vector
// refmodel.Router.StateVector produces, so two implementations that
// simulated the same history flatten to equal vectors (the cross-engine
// state-equivalence tests in internal/sim compare them). Packets and
// credits in flight on links are deliberately excluded: they live in
// implementation-specific structures and are compared after arrival.
func (c *Core) StateVector(r int, v []int64) []int64 { return c.walkState(r, v, -1).v }

// StateWord names word i of StateVector(r, nil), e.g. "out[5].vc[2].credits"
// or "in[3].vc[0].pkt[1].ReadyAt", and is "end" past the vector. The length
// depends on the queued packets, so a name holds only for the state it names.
func (c *Core) StateWord(r, i int) string { return c.walkState(r, nil, i).name }

// stateWalk is one pass over a router's state in StateVector's order: it
// appends every word to v, or names the word at index at, from one walk.
type stateWalk struct {
	v                    []int64
	name, side, where    string // where is the name prefix: atPort, atVC or atPkt
	at, n, port, vc, pkt int    // n counts the words walked so far
}

const atPort, atVC, atPkt = "%[1]s[%[2]d].", "%[1]s[%[2]d].vc[%[3]d].", "%[1]s[%[2]d].vc[%[3]d].pkt[%[4]d]."

// put walks xs, whose field names are the space-separated words of names.
func (w *stateWalk) put(names string, xs ...int64) {
	if i := w.at - w.n; i >= 0 && i < len(xs) {
		w.name = fmt.Sprintf(w.where, w.side, w.port, w.vc, w.pkt) + strings.Fields(names)[i]
	}
	if w.n += len(xs); w.at < 0 {
		w.v = append(w.v, xs...)
	}
}

func (c *Core) walkState(r int, v []int64, at int) *stateWalk {
	w := &stateWalk{v: v, name: "end", side: "in", at: at}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	queue := func(q *packet.Queue) {
		w.where, w.pkt = atPkt, 0
		q.Each(func(p *packet.Packet) {
			w.put("ID Src Dst VC Phase IntNode IntGroup Misrouted LocalMisrouted SrcDecided LocalHops GlobalHops ReadyAt EnqueuedAt GenTime InjectTime LinkLat WaitInj WaitLocal WaitGlobal",
				int64(p.ID), int64(p.Src), int64(p.Dst), int64(p.VC),
				int64(p.Phase), int64(p.IntNode), int64(p.IntGroup),
				b2i(p.Misrouted), b2i(p.LocalMisrouted), b2i(p.SrcDecided),
				int64(p.LocalHops), int64(p.GlobalHops),
				p.ReadyAt, p.EnqueuedAt, p.GenTime, p.InjectTime,
				p.LinkLat, p.WaitInj, p.WaitLocal, p.WaitGlobal)
			w.pkt++
		})
	}
	base := r * c.np
	for p := 0; p < c.np; p++ {
		in := &c.inP[base+p]
		w.where, w.port = atPort, p
		w.put("busy rrVC qTotal pend.active pend.done pend.vc pend.outPort pend.outVC pend.kind pend.group",
			in.busy, int64(in.rrVC), int64(in.qTotal),
			b2i(in.pend.active), in.busy, int64(in.pend.vc), int64(in.pend.outPort),
			int64(in.pend.outVC), int64(in.pend.kind), int64(in.pend.group))
		for vc := 0; vc < int(c.nInVC[p]); vc++ {
			q := &c.inQ[c.vcBase(r, p)+vc]
			w.where, w.vc = atVC, vc
			w.put("occ qlen", int64(q.occ), int64(q.qlen))
			queue(&q.q)
		}
	}
	w.side = "out"
	for p := 0; p < c.np; p++ {
		o := &c.outP[base+p]
		w.where, w.port = atPort, p
		// relAt, the cycle the pending release falls due, is linkBusy: the
		// oracle keeps it as a word of its own.
		w.put("linkBusy xbarBusy relAt relPhits relVC occ qTotal free rr rrVC",
			o.linkBusy, o.xbarBusy, o.linkBusy,
			int64(o.relPhits), int64(o.relVC), int64(o.occ),
			int64(o.qTotal), int64(o.free), int64(o.rr), int64(o.rrVC))
		for vc := 0; vc < int(c.nOutVC[p]); vc++ {
			q := &c.outQ[c.vcBase(r, p)+vc]
			w.where, w.vc = atVC, vc
			w.put("occ", int64(q.occVC))
			if c.downCapVC[p] > 0 {
				w.put("credits", int64(q.credits))
			}
			queue(&q.q)
		}
	}
	return w
}
