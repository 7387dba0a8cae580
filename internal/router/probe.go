package router

import "dragonfly/internal/topology"

// Read-only probe accessors for the telemetry layer. internal/refmodel
// defines the same accessors over the oracle's per-router structs, so a
// probe sample is identical whichever implementation produced it (the
// state itself is identical at every cycle boundary; see the cross-engine
// StateVector equivalence test). Probes mutate nothing and are meant to
// run between cycles, with all engine workers quiescent.

// LinkProbe is one router's instantaneous link-level observation: transit
// ports currently serialising a packet (by port class) and transit ports
// that are idle with queued packets but cannot send because no queue head
// holds a full packet of downstream credit — the credit-stall signature of
// saturation-tree congestion.
type LinkProbe struct {
	LocalBusy     int
	GlobalBusy    int
	CreditStalled int
}

// ProbeQueues returns the phits buffered at router r: input side (VC
// buffer occupancy across all input ports) and output side (reserved
// phits across all output ports, in-flight crossbar transfers included).
func (c *Core) ProbeQueues(r int) (inPhits, outPhits int64) {
	base := r * c.np
	for p := 0; p < c.np; p++ {
		vbase := (base + p) * c.maxVC
		for v := 0; v < int(c.nInVC[p]); v++ {
			inPhits += int64(c.inQ[vbase+v].occ)
		}
		outPhits += int64(c.outP[base+p].occ)
	}
	return inPhits, outPhits
}

// ProbeLinks probes router r's output ports at the start of cycle now: a
// port is busy while its serializer is occupied (linkBusy > now), and
// credit-stalled when it is idle with packets queued but no VC head can
// send for lack of downstream credit — the same sendability rule the link
// stage applies.
func (c *Core) ProbeLinks(r int, now int64) LinkProbe {
	var lp LinkProbe
	base := r * c.np
	size := int32(c.size)
	for p := 0; p < c.np; p++ {
		class := c.class[p]
		if class != topology.LocalPort && class != topology.GlobalPort {
			continue // ejection: no link to probe
		}
		pi := base + p
		if c.outP[pi].linkBusy > now {
			if class == topology.GlobalPort {
				lp.GlobalBusy++
			} else {
				lp.LocalBusy++
			}
			continue
		}
		if c.outP[pi].qTotal == 0 {
			continue
		}
		vbase := pi * c.maxVC
		stalled := true
		for v := 0; v < int(c.nOutVC[p]); v++ {
			pkt := c.outQFront(vbase + v)
			if pkt == nil {
				continue
			}
			if c.outQ[vbase+pkt.VC].credits >= size {
				stalled = false
				break
			}
		}
		if stalled {
			lp.CreditStalled++
		}
	}
	return lp
}
