// The Core's per-cycle hot loop. Iteration orders — ascending port scans
// (bitmask iteration yields set bits in ascending order), VC round-robin
// starts, the two-pass transit-priority submit loop, arbitration
// tie-breaks — and every RNG consumption point match refmodel.Router.Step
// exactly, which is what keeps the engines bit-identical to the dense
// oracle (the cross-engine equivalence tests enforce this).
//
// One per-port scan of the oracle is replaced by a provably equivalent
// calendar-head read: the allocator's per-port consider(input.busyUntil)
// for busy inputs becomes one consider of the transfer calendar head. After
// completeTransfers(now) drained everything due, xferDue holds exactly one
// entry per input with busy > now, at that cycle — grant inserts the entry
// when it sets busy, and nothing else writes either — so the min over busy
// inputs is the calendar head, bit for bit.
//
// What the oracle does at the top of every step — pop the buffer releases,
// credits and packet arrivals that fell due — is split off into Settle:
// those three change what the router *holds*, not what it *does*, so they
// are applied the next time anyone looks (the router's own next step, or an
// observer), with the event's own cycle for every timestamp they leave
// behind. The horizon StepRouter returns covers only the cycles at which the
// router can grant, send, transfer or deliver.
package router

import (
	"fmt"
	"math"
	"math/bits"

	"dragonfly/internal/packet"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
)

// consider folds a future event cycle into a Step's next-event horizon.
func consider(nev *int64, t int64) {
	if *nev < 0 || t < *nev {
		*nev = t
	}
}

// StepRouter advances router r by one cycle and returns the earliest
// future cycle at which it has internal work to do again, or -1 if it is
// quiescent: a step before that cycle would grant, send, transfer and
// deliver nothing and consume no randomness, so the engine may skip it until
// then — provided it is also woken for what reaches it from outside (link
// events: the cycle PushDue returns, and EarliestExternal for those already
// parked; injection, which the engine's generation calendar knows in
// advance). A skipped step is not a no-op: releases, credits and arrivals
// fall due while the router sleeps. They are settled first thing here, so
// the stages below see exactly the state the dense oracle would have.
//
// The returned horizon is assembled by the stages from exactly the
// conditions they act on:
//   - a crossbar transfer completing, freeing its input (busy);
//   - an input VC head becoming allocatable once its pipeline delay
//     elapses (ReadyAt) — and an already-allocatable head is retried
//     every cycle, because the allocator re-requests (and the routing
//     mechanism re-decides, consuming RNG) until it is granted;
//   - the serializer of an output with packets queued freeing (linkBusy),
//     after which the next one can be sent — the oracle's per-port rule;
//     an output that is transmitting its last packet has nothing to do
//     when the link frees, and its buffer release is Settle's business;
//   - a credit already in flight towards a starved output.
//
// The engine guarantees strictly increasing now values and at most one
// call per cycle. The step works in allocator scratch w (see SizeScratch):
// routers of distinct groups may be stepped concurrently, each concurrent
// stepper in a scratch of its own.
func (c *Core) StepRouter(r int, now int64, w int) int64 {
	nev := int64(-1)
	base := r * c.np
	if c.bookAt[r] <= now {
		c.settle(r, base, now, now-1)
	}
	c.completeTransfers(r, base, now)
	sc := &c.scratch[w]
	c.allocate(r, base, now, &nev, sc)
	// Candidates left ungranted by the allocator (arbitration losses,
	// busy or full outputs) are re-requested next cycle; granted inputs
	// are accounted for inside grant() via busy.
	for _, p := range sc.candIn[:sc.candInN] {
		if sc.candN[p] > 0 {
			consider(&nev, now+1)
			break
		}
	}
	c.linkStage(r, base, now, &nev)
	return nev
}

// Settle applies every buffer release, credit and packet arrival of router
// r that fell due by the end of cycle upTo, each with its own due cycle, and
// reports whether there was any. It is for whoever reads r's state without
// stepping it — an observer between windows, PiggyBack's group refresh —
// after every step of cycle upTo has run: the result is the state the dense
// oracle holds at that point. (StepRouter settles for itself.) Calling it
// again, or later, changes nothing: an event is applied once, and when it is
// applied leaves no trace.
func (c *Core) Settle(r int, upTo int64) bool {
	if c.bookAt[r] > upTo {
		return false
	}
	c.settle(r, r*c.np, upTo, upTo)
	return true
}

// settle is the pop path of the three state-only event kinds: everything
// due by cycle upTo is applied (PushDue pops the due head of a full credit
// ring too, through the same popCredit). stepped is the last cycle whose
// steps have all run (upTo for an observer, upTo-1 inside StepRouter(upTo)):
// an event that called for a step at or before it was slept through, and
// settle panics rather than let the run diverge — a packet is allocatable
// from at + pipeline, a credit on a starved output (see linkStage) at once.
func (c *Core) settle(r, base int, upTo, stepped int64) {
	book := int64(math.MaxInt64)
	// Buffer releases: the router-local calendar knows exactly when each
	// output frees the space of a sent packet.
	d := &c.relDue[r]
	for d.head < len(d.q) && d.q[d.head].at <= upTo {
		p := int(d.pop().port)
		if o := &c.outP[base+p]; o.relPhits > 0 {
			o.occ -= o.relPhits
			c.outQ[c.vcBase(r, p)+int(o.relVC)].occVC -= o.relPhits
			o.relPhits = 0
		}
	}
	if d.head < len(d.q) {
		book = d.q[d.head].at
	}
	// Credits: only outputs with a credit in flight are touched; the rings
	// carry (cycle, vc) directly.
	mw := c.maskWords
	for w := 0; w < mw; w++ {
		pb := w << 6
		for m := c.crdPendMask[r*mw+w]; m != 0; m &= m - 1 {
			p := pb + bits.TrailingZeros64(m)
			q := &c.crdQ[base+p]
			for q.qlen > 0 {
				if at := c.crdData[q.off+q.head].at(); at > upTo {
					book = min(book, at)
					break
				}
				c.popCredit(r, p, stepped)
			}
		}
	}
	// Arrivals sit at the heads of the per-port queues. Ports are visited in
	// ascending order; arrivals at different ports commute (an arrival only
	// touches its own port's state and consumes no randomness), and one
	// port's arrive in queue order.
	arr := int64(math.MaxInt64)
	for w := 0; w < mw; w++ {
		pb := w << 6
		for m := c.arrPendMask[r*mw+w]; m != 0; m &= m - 1 {
			p := pb + bits.TrailingZeros64(m)
			pi := base + p
			q := &c.arrQ[pi]
			for q.n > 0 {
				pkt := q.q.Front()
				at := pkt.EnqueuedAt // the arrival cycle, while in flight
				if at > upTo {
					arr = min(arr, at)
					break
				}
				if at+c.pipeline <= stepped {
					panic(fmt.Sprintf("router %d: packet arrived at cycle %d, allocatable from %d, still unapplied after cycle %d (receiver slept through it)", r, at, at+c.pipeline, stepped))
				}
				q.q.Pop()
				if q.n--; q.n == 0 {
					c.arrPendMask[r*mw+w] &^= 1 << (uint(p) & 63)
				}
				routing.OnArrive(c.env, r, pkt, c.class[p] == topology.GlobalPort)
				pkt.ReadyAt = at + c.pipeline
				vi := c.vcBase(r, p) + int(pkt.VC)
				s := &c.inQ[vi]
				if s.occ+int32(pkt.Size) > c.inCapVC[p] {
					panic(fmt.Sprintf("router %d: input buffer overflow port %d vc %d (credit protocol violated)", r, p, pkt.VC))
				}
				c.inQPush(vi, p, pkt)
				s.occ += int32(pkt.Size)
				c.inP[pi].qTotal++
				c.inOccMask[r*mw+p>>6] |= 1 << (uint(p) & 63)
			}
		}
	}
	c.arrAt[r] = arr
	c.bookAt[r] = min(book, arr)
}

// popCredit applies the credit at the head of router r's output p ring —
// the one credit pop, settle's and PushDue's (for a full ring) alike.
// stepped is as in settle: a credit due at or before it on a starved output
// was slept through.
func (c *Core) popCredit(r, p int, stepped int64) {
	pi := r*c.np + p
	word, bit := r*c.maskWords+p>>6, uint64(1)<<(uint(p)&63)
	q := &c.crdQ[pi]
	ev := c.crdData[q.off+q.head]
	if ev.at() <= stepped && c.starved[word]&bit != 0 {
		panic(fmt.Sprintf("router %d: credit due at cycle %d on starved port %d still unapplied after cycle %d: scheduler failed to wake", r, ev.at(), p, stepped))
	}
	if q.head++; q.head == q.qcap {
		q.head = 0
	}
	if q.qlen--; q.qlen == 0 {
		c.crdPendMask[word] &^= bit
	}
	s := &c.outQ[c.vcBase(r, p)+ev.vc()]
	s.credits += int32(c.size)
	c.outP[pi].free += int32(c.size)
	if s.credits > c.downCapVC[p] {
		panic(fmt.Sprintf("router %d: credit overflow on port %d vc %d", r, p, ev.vc()))
	}
}

func (c *Core) completeTransfers(r, base int, now int64) {
	d := &c.xferDue[r]
	for d.head < len(d.q) && d.q[d.head].at <= now {
		p := int(d.pop().port)
		pi := base + p
		pd := &c.inP[pi].pend
		if !pd.active {
			continue
		}
		pd.active = false
		vcIdx := int(pd.vc)
		pkt := c.inQPop(c.vcBase(r, p) + vcIdx)
		if c.inP[pi].qTotal--; c.inP[pi].qTotal == 0 {
			c.inOccMask[r*c.maskWords+p>>6] &^= 1 << (uint(p) & 63)
		}
		// Return the credit for the buffer space just freed: it rides the
		// wake event to the upstream output's credit ring.
		if w := &c.inW[pi]; w.peer >= 0 {
			c.notify[r](LinkEvent{
				Router: int(w.peer), port: int(w.peerPort), at: now + int64(w.lat),
				Credit: true, pvc: int32(vcIdx),
			})
		}
		if c.class[p] == topology.InjectionPort {
			pkt.InjectTime = now
			if c.measuring(now) {
				c.stats[r].Injected++
				if j := c.jobByID(r, pkt.Job); j != nil {
					j.Injected++
				}
			}
		}
		// Commit the routing decision and the hop.
		outPort := int(pd.outPort)
		packet.Action{Kind: pd.kind, Group: int(pd.group)}.Apply(pkt)
		pkt.VC = uint8(pd.outVC)
		switch c.class[outPort] {
		case topology.LocalPort:
			pkt.LocalHops++
		case topology.GlobalPort:
			pkt.GlobalHops++
		}
		pkt.EnqueuedAt = now
		opi := base + outPort
		c.outQPush(c.vcBase(r, outPort)+int(pkt.VC), pkt)
		c.outP[opi].qTotal++
		c.outOccMask[r*c.maskWords+outPort>>6] |= 1 << (uint(outPort) & 63)
	}
}

func (c *Core) allocate(r, base int, now int64, nev *int64, sc *allocScratch) {
	// Busy inputs, folded in one read: the transfer calendar head (see
	// the package comment for the equivalence argument).
	if d := &c.xferDue[r]; d.head < len(d.q) {
		consider(nev, d.q[d.head].at)
	}
	size := int32(c.size)
	np := c.np
	rvc := r * c.vcs
	vcOff := c.vcOff
	mw := c.maskWords
	view := &c.views[r]
	rnd := &c.rnd[r]
	inP := c.inP
	cand, candN, granted := sc.cand, sc.candN, sc.granted
	// Gather per-input candidate requests: one NextHop per ready VC head,
	// in round-robin VC order, ascending port order over occupied ports.
	cin := sc.candIn
	cinN := 0
	for w := 0; w < mw; w++ {
		m := c.inOccMask[r*mw+w]
		pb := w << 6
		for m != 0 {
			p := pb + bits.TrailingZeros64(m)
			m &= m - 1
			pi := base + p
			if inP[pi].busy > now {
				continue // frees when the transfer completes (calendar head above)
			}
			nvc := int(c.nInVC[p])
			vbase := rvc + int(vcOff[p])
			vc := int(inP[pi].rrVC)
			fresh := false
			for i := 0; i < nvc; i++ {
				v := vc
				if vc++; vc == nvc {
					vc = 0
				}
				pkt := c.inQFront(vbase + v)
				if pkt == nil {
					continue
				}
				if pkt.ReadyAt > now {
					consider(nev, pkt.ReadyAt)
					continue
				}
				if !fresh {
					fresh = true
					candN[p] = 0 // drop the entries of an earlier step
					granted[p] = false
					cin[cinN] = int32(p)
					cinN++
				}
				req := c.mech.NextHop(c.env, view, pkt, c.class[p], rnd)
				cand[int(vcOff[p])+int(candN[p])] = candRec{
					vc:      uint8(v),
					outPort: uint16(req.Port),
					outVC:   uint8(req.VC),
					kind:    req.Action.Kind,
					group:   int32(req.Action.Group),
				}
				candN[p]++
			}
		}
	}
	sc.candInN = int32(cinN)
	if cinN == 0 {
		return
	}

	transitFirst := c.arb == TransitOverInjection
	transitSubmitted := false
	touched := sc.outTouched
	touchedN := 0
	outCand := sc.outCand
	outCandN := sc.outCandN
	for iter := 0; iter < c.allocIter; iter++ {
		// Submit: each free input proposes its first feasible candidate.
		// Under transit-over-injection priority the batch allocator
		// admits injection requests only into cycles where no transit
		// request could be submitted at all — the Blue Gene style
		// priority whose fairness cost Section V quantifies.
		submitted := false
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				if !transitFirst || submitted || transitSubmitted {
					break
				}
			}
			for k := 0; k < cinN; k++ {
				p := int(cin[k])
				pi := base + p
				if transitFirst {
					isInj := c.class[p] == topology.InjectionPort
					if (pass == 0) == isInj {
						continue
					}
				} else if pass == 1 {
					break
				}
				if granted[p] || inP[pi].busy > now || candN[p] == 0 {
					continue
				}
				for ciIdx := 0; ciIdx < int(candN[p]); ciIdx++ {
					cd := &cand[int(vcOff[p])+ciIdx]
					outPort := int(cd.outPort)
					if c.outP[base+outPort].xbarBusy > now || c.outQ[rvc+int(vcOff[outPort])+int(cd.outVC)].occVC+size > c.capVC {
						continue
					}
					if outCandN[outPort] == 0 {
						touched[touchedN] = int32(outPort)
						touchedN++
					}
					outCand[outPort*np+int(outCandN[outPort])] = outCandRec{in: int32(p), idx: int32(ciIdx)}
					outCandN[outPort]++
					submitted = true
					if pass == 0 && transitFirst {
						transitSubmitted = true
					}
					break
				}
			}
		}
		if !submitted {
			return
		}
		// Grant: each output arbitrates among its requesters, in the
		// submission (ascending-port) order of outTouched.
		for _, outPort := range touched[:touchedN] {
			if n := int(outCandN[outPort]); n > 0 {
				inP, ciIdx := c.arbitrate(sc, r, int(outPort), n)
				c.grant(r, base, now, sc, inP, ciIdx, nev)
			}
			outCandN[outPort] = 0
		}
		touchedN = 0
	}
}

// arbitrate picks the winning request among the n requesters submitted
// to output port outPort, according to the configured arbitration policy.
func (c *Core) arbitrate(sc *allocScratch, r, outPort, n int) (inP, ciIdx int32) {
	reqs := sc.outCand[outPort*c.np : outPort*c.np+n]
	rr := int(c.outP[r*c.np+outPort].rr)
	switch c.arb {
	case TransitOverInjection:
		// Transit first; round-robin within the preferred class.
		best := int32(-1)
		bestCi := int32(0)
		for _, req := range reqs {
			if c.class[req.in] != topology.InjectionPort {
				if best == -1 || rrBefore(int(req.in), int(best), rr, c.np) {
					best, bestCi = req.in, req.idx
				}
			}
		}
		if best >= 0 {
			return best, bestCi
		}
		return c.roundRobinPick(reqs, rr)
	case AgeBased:
		best, bestCi := reqs[0].in, reqs[0].idx
		bestAge := c.headGen(sc, r, best, bestCi)
		for _, req := range reqs[1:] {
			if age := c.headGen(sc, r, req.in, req.idx); age < bestAge || (age == bestAge && req.in < best) {
				best, bestCi, bestAge = req.in, req.idx, age
			}
		}
		return best, bestCi
	default:
		return c.roundRobinPick(reqs, rr)
	}
}

// rrBefore reports whether input a precedes input b in round-robin order
// starting at pointer ptr.
func rrBefore(a, b, ptr, n int) bool {
	da := (a - ptr + n) % n
	db := (b - ptr + n) % n
	return da < db
}

// headGen returns the generation time of the packet a request proposes.
func (c *Core) headGen(sc *allocScratch, r int, inP, ciIdx int32) int64 {
	vbase := c.vcBase(r, int(inP))
	return c.inQFront(vbase + int(sc.cand[int(c.vcOff[inP])+int(ciIdx)].vc)).GenTime
}

// roundRobinPick picks the request whose input comes first from the
// round-robin pointer rr on.
func (c *Core) roundRobinPick(reqs []outCandRec, rr int) (inP, ciIdx int32) {
	best, bestCi := reqs[0].in, reqs[0].idx
	for _, req := range reqs[1:] {
		if rrBefore(int(req.in), int(best), rr, c.np) {
			best, bestCi = req.in, req.idx
		}
	}
	return best, bestCi
}

// grant commits the allocation of input inP's candidate ciIdx at router r.
func (c *Core) grant(r, base int, now int64, sc *allocScratch, inP, ciIdx int32, nev *int64) {
	p := int(inP)
	pi := base + p
	cd := sc.cand[int(c.vcOff[p])+int(ciIdx)]
	vcIdx := int(cd.vc)
	outPort := int(cd.outPort)
	outVC := int(cd.outVC)
	opi := base + outPort
	pkt := c.inQFront(c.vcBase(r, p) + vcIdx)

	// Wait accounting: time spent at the head of (or queued in) the
	// input buffer beyond the pipeline latency.
	wait := now - pkt.ReadyAt
	switch c.class[p] {
	case topology.InjectionPort:
		pkt.WaitInj += wait
	case topology.LocalPort:
		pkt.WaitLocal += wait
	case topology.GlobalPort:
		pkt.WaitGlobal += wait
	}

	c.inP[pi].busy = now + c.xbar
	consider(nev, c.inP[pi].busy) // transfer completes, freeing the input
	c.xferDue[r].insert(c.inP[pi].busy, int32(p), "transfer")
	c.inP[pi].pend = pendRec{candRec: cd, active: true}
	rv := vcIdx + 1
	if rv == int(c.nInVC[p]) {
		rv = 0
	}
	c.inP[pi].rrVC = uint8(rv)
	c.outP[opi].xbarBusy = now + c.xbar
	c.outP[opi].occ += int32(pkt.Size) // reserve output buffer space now (VCT)
	c.outQ[c.vcBase(r, outPort)+outVC].occVC += int32(pkt.Size)
	rr := p + 1
	if rr == c.np {
		rr = 0
	}
	c.outP[opi].rr = uint16(rr)
	sc.granted[p] = true
	sc.candN[p] = 0
	c.stats[r].LastActivity = now
	if c.trace[r] != nil {
		c.trace[r](now, TraceGrant, pkt, r, outPort, outVC)
	}
}

func (c *Core) linkStage(r, base int, now int64, nev *int64) {
	size := int32(c.size)
	rvc := r * c.vcs
	mw := c.maskWords
	outQ := c.outQ
	for w := 0; w < mw; w++ {
		m := c.outOccMask[r*mw+w]
		pb := w << 6
		// Outputs left starved by this pass: idle, packets queued, no head
		// with a packet of credit. Only a credit gets such a port moving, so
		// only there does one wake the router (PushDue reads the mask).
		var starved uint64
		for m != 0 {
			p := pb + bits.TrailingZeros64(m)
			m &= m - 1
			pi := base + p
			if c.outP[pi].linkBusy > now {
				consider(nev, c.outP[pi].linkBusy) // the next queued packet goes when the serializer frees
				continue
			}
			// Link VC arbitration: round-robin over VCs whose head packet
			// has a full packet of downstream credit.
			nvc := int(c.nOutVC[p])
			transit := c.downCapVC[p] > 0 // false: ejection, the node consumes unconditionally
			vbase := rvc + int(c.vcOff[p])
			sendVC := -1
			vc := int(c.outP[pi].rrVC)
			for i := 0; i < nvc; i++ {
				v := vc
				if vc++; vc == nvc {
					vc = 0
				}
				pkt := c.outQFront(vbase + v)
				if pkt == nil {
					continue
				}
				if transit && outQ[vbase+int(pkt.VC)].credits < size {
					continue // VCT: wait for a full packet of credit
				}
				sendVC = v
				break
			}
			if sendVC < 0 {
				starved |= 1 << (uint(p) & 63)
				if q := &c.crdQ[pi]; q.qlen > 0 {
					consider(nev, c.crdData[q.off+q.head].at()) // a credit already on its way
				}
				continue
			}
			pkt := c.outQPop(vbase + sendVC)
			if c.outP[pi].qTotal--; c.outP[pi].qTotal == 0 {
				c.outOccMask[r*mw+w] &^= 1 << (uint(p) & 63)
			}
			rv := sendVC + 1
			if rv == nvc {
				rv = 0
			}
			c.outP[pi].rrVC = uint8(rv)
			if transit {
				outQ[vbase+int(pkt.VC)].credits -= size
				c.outP[pi].free -= size
			}
			// Output-queue wait accounting by link class.
			wait := now - pkt.EnqueuedAt
			switch c.class[p] {
			case topology.GlobalPort:
				pkt.WaitGlobal += wait
			default: // local and ejection queues are intra-group queues
				pkt.WaitLocal += wait
			}
			// The serializer frees, and the packet's buffer space is released,
			// when its last phit has left.
			c.outP[pi].linkBusy = now + c.serial
			c.outP[pi].relPhits += size
			c.outP[pi].relVC = uint8(sendVC)
			c.relDue[r].insert(c.outP[pi].linkBusy, int32(p), "release")
			c.bookAt[r] = min(c.bookAt[r], c.outP[pi].linkBusy) // the release is Settle's
			if c.outP[pi].qTotal > 0 {
				consider(nev, c.outP[pi].linkBusy)
			}
			if c.trace[r] != nil {
				c.trace[r](now, TraceLinkSend, pkt, r, p, int(pkt.VC))
			}
			if transit {
				w := &c.outW[pi]
				pkt.LinkLat += int64(w.lat)
				if w.peer >= 0 {
					// The packet rides the wake event to the far input's arrival queue.
					c.notify[r](LinkEvent{Router: int(w.peer), port: int(w.peerPort), at: now + c.serial + int64(w.lat), pkt: pkt})
				} else {
					c.lost++ // unplugged (see Unplug)
				}
			} else {
				c.deliver(r, now, pkt)
			}
			c.stats[r].LastActivity = now
		}
		c.starved[r*mw+w] = starved
	}
}

// deliver consumes a packet whose serialisation onto the ejection link
// starts at cycle now: the step's cycle decides the phase, the last phit's
// arrival is the delivery time.
func (c *Core) deliver(r int, now int64, pkt *packet.Packet) {
	at := now + c.serial
	pkt.DeliverTime = at
	if c.jobLive[r] != nil && pkt.Job >= 0 {
		c.jobLive[r][pkt.Job]++
	}
	if c.measuring(now) {
		s := &c.stats[r]
		s.Delivered++
		s.DeliveredPhits += int64(pkt.Size)
		s.BatchPhits[stats.BatchIndex(now, c.warmup, c.total)] += int64(pkt.Size)
		lat := pkt.TotalLatency()
		s.LatencySum += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		if j := c.jobByID(r, pkt.Job); j != nil {
			j.Delivered++
			j.DeliveredPhits += int64(pkt.Size)
			j.LatencySum += lat
			if lat > j.MaxLatency {
				j.MaxLatency = lat
			}
			j.Latencies.Observe(lat)
		}
		s.Latencies.Observe(lat)
		base := c.pathCost(int(pkt.MinLocal), int(pkt.MinGlobal), pkt.MinLinkLat)
		s.BaseSum += base
		s.MisrouteSum += c.pathCost(int(pkt.LocalHops), int(pkt.GlobalHops), pkt.LinkLat) - base
		s.WaitInjSum += pkt.WaitInj
		s.WaitLocalSum += pkt.WaitLocal
		s.WaitGlobalSum += pkt.WaitGlobal
	}
	if c.trace[r] != nil {
		c.trace[r](at, TraceDeliver, pkt, r, c.topo.NodePort(int(pkt.Dst)), 0)
	}
	c.recycle(pkt)
}

// pathCost is the zero-load latency of a path with the given hop shape and
// summed link propagation latency: every router contributes
// pipeline+crossbar+serialisation, and linkLat prices the links actually
// (or, for the minimal-path base cost, hypothetically) traversed.
func (c *Core) pathCost(local, global int, linkLat int64) int64 {
	return int64(local+global+1)*c.perRouter + linkLat
}

// inQFront returns the head packet of input VC vi, or nil.
func (c *Core) inQFront(vi int) *packet.Packet { return c.inQ[vi].q.Front() }

// inQPush appends a packet to input VC vi of port p, holding the queue to
// the packets the VC's buffer has room for.
func (c *Core) inQPush(vi, p int, pkt *packet.Packet) {
	s := &c.inQ[vi]
	if s.qlen == c.inQCap[p] {
		panic("router: input ring overflow")
	}
	s.q.Push(pkt)
	s.qlen++
}

// inQPop removes and returns the head packet of input VC vi.
func (c *Core) inQPop(vi int) *packet.Packet {
	s := &c.inQ[vi]
	pkt := s.q.Pop()
	s.qlen--
	s.occ -= int32(pkt.Size)
	return pkt
}

// outQFront returns the head packet of output VC vi, or nil.
func (c *Core) outQFront(vi int) *packet.Packet { return c.outQ[vi].q.Front() }

// outQPush appends a packet to output VC vi, holding the queue to the
// packets an output buffer has room for.
func (c *Core) outQPush(vi int, pkt *packet.Packet) {
	s := &c.outQ[vi]
	if s.qlen == c.outQCap {
		panic("router: output ring overflow")
	}
	s.q.Push(pkt)
	s.qlen++
}

// outQPop removes and returns the head packet of output VC vi.
func (c *Core) outQPop(vi int) *packet.Packet {
	s := &c.outQ[vi]
	s.qlen--
	return s.q.Pop()
}
