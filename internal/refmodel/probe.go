package refmodel

import (
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
)

// ProbeQueues is the classic-representation counterpart of Core.ProbeQueues.
func (r *Router) ProbeQueues() (inPhits, outPhits int64) {
	for p := range r.inputs {
		for v := range r.inputs[p].vcs {
			inPhits += int64(r.inputs[p].vcs[v].occ)
		}
	}
	for p := range r.outputs {
		outPhits += int64(r.outputs[p].occ)
	}
	return inPhits, outPhits
}

// ProbeLinks is the classic-representation counterpart of Core.ProbeLinks.
func (r *Router) ProbeLinks(now int64) router.LinkProbe {
	var lp router.LinkProbe
	size := r.cfg.PacketSize
	for p := range r.outputs {
		o := &r.outputs[p]
		if o.class != topology.LocalPort && o.class != topology.GlobalPort {
			continue
		}
		if o.linkBusyUntil > now {
			if o.class == topology.GlobalPort {
				lp.GlobalBusy++
			} else {
				lp.LocalBusy++
			}
			continue
		}
		if o.qTotal == 0 {
			continue
		}
		stalled := true
		for vc := range o.queues {
			pkt := o.queueFront(vc)
			if pkt == nil {
				continue
			}
			if o.credits[pkt.VC] >= size {
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
