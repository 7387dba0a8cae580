package router

import (
	"fmt"

	"dragonfly/internal/packet"
	"dragonfly/internal/topology"
)

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

// CheckSleep verifies that router r, due to step next at cycle wakeAt, sleeps
// through nothing — read off the queues, rings and calendars themselves, not
// the cached minima the engine and Settle go by: wakeAt is no later than the
// cycle any packet in flight towards r becomes allocatable (its arrival plus
// the input pipeline), nor than any credit in flight towards a starved
// output; and the Settle gate is no later than any unapplied release, credit
// or arrival. It returns the first violation. Between cycles only.
func (c *Core) CheckSleep(r int, wakeAt int64) error {
	base := r * c.np
	book := c.bookAt[r]
	d := &c.relDue[r]
	for _, e := range d.q[d.head:] {
		if e.at < book {
			return fmt.Errorf("router %d: release of port %d due at %d, settle gate at %d", r, e.port, e.at, book)
		}
	}
	for p := 0; p < c.np; p++ {
		pi := base + p
		var err error
		c.arrQ[pi].q.Each(func(pkt *packet.Packet) {
			switch at := pkt.EnqueuedAt; {
			case err != nil:
			case at < book || at < c.arrAt[r]:
				err = fmt.Errorf("router %d: arrival on port %d due at %d, settle gate at %d, earliest arrival cached as %d", r, p, at, book, c.arrAt[r])
			case wakeAt > at+c.pipeline:
				err = fmt.Errorf("router %d wakes at %d: a packet arriving on port %d at %d is allocatable from %d", r, wakeAt, p, at, at+c.pipeline)
			}
		})
		if err != nil {
			return err
		}
		starved := c.starved[r*c.maskWords+p>>6]&(1<<(uint(p)&63)) != 0
		q := &c.crdQ[pi]
		for k, h := int32(0), q.head; k < q.qlen; k++ {
			at := c.crdData[q.off+h].at()
			switch {
			case at < book:
				return fmt.Errorf("router %d: credit on port %d due at %d, settle gate at %d", r, p, at, book)
			case starved && wakeAt > at:
				return fmt.Errorf("router %d wakes at %d: starved port %d gets a credit at %d", r, wakeAt, p, at)
			}
			if h++; h == q.qcap {
				h = 0
			}
		}
	}
	return nil
}
