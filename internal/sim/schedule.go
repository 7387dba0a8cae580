package sim

import "math"

// The active-router scheduler. The cycle engines step only routers that
// have (or may have) work to do in the current cycle; everything else is
// asleep. Correctness rests on one invariant: a sleeping router is always
// woken no later than its next event. Events come from three sources:
//
//   - internal work: StepRouter returns the earliest future cycle with
//     internal work (pipeline delays elapsing, crossbar transfers
//     completing, buffer releases / serializer slots freeing, allocator
//     retries);
//   - in-flight link events: packets and credits already travelling
//     towards the router. They are invisible in its own buffers, so the
//     engine parks every event in the destination port's ring
//     (Core.PushDue) and sleep consults the ring heads through
//     Core.EarliestExternal;
//   - generation: the engine knows every node's next Bernoulli arrival in
//     advance (Network.genWake).
//
// A router sleeps with the min of the three, so everything pending at
// sleep time is covered. Events created *after* a router fell asleep are
// caught by the wake sink (Core.SetSink): the sender reports the
// destination and arrival cycle of everything it pushes onto a link, and
// notify() advances the sleeper's wake-up if the new event is earlier.
// For active routers notify is a no-op — whenever they later sleep, the
// event has already been routed to their rings.
//
// Results stay bit-identical to the dense engines that step every router
// every cycle: a sleeping router would only have executed provable
// no-op steps (no state change, no RNG consumption). Spurious wakes (heap
// entries that a later, earlier wake made redundant) cost a no-op step
// and nothing else.
//
// All scheduler state is mutated between cycles only (on the coordinator,
// under the parallel engine), so the engines stay race-free.
type scheduler struct {
	active []bool
	// sleepUntil is the earliest scheduled wake-up of a sleeping router
	// (math.MaxInt64: sleeping with none); meaningless while active.
	sleepUntil []int64
	list       []int    // routers to step this cycle, ascending id
	heap       []uint64 // packed (cycle<<routerBits | router) min-heap
	steps      int64    // router-steps executed, for tests and benchmarks
}

// routerBits sizes the router-id field of a packed calendar entry; 2^20
// routers is three orders of magnitude above the paper-scale network.
const routerBits = 20

func newScheduler(n int) *scheduler {
	s := &scheduler{
		active:     make([]bool, n),
		sleepUntil: make([]int64, n),
		list:       make([]int, 0, n),
		heap:       make([]uint64, 0, n),
	}
	// Every router starts active: cycle 0 of an empty network settles each
	// router into its first sleep with the correct wake-up.
	for r := range s.active {
		s.active[r] = true
	}
	return s
}

// push enters a calendar entry for router r at cycle at.
func (s *scheduler) push(r int, at int64) {
	e := uint64(at)<<routerBits | uint64(r)
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] <= s.heap[i] {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// sleep removes r from the active set with a wake-up at cycle at (pass
// at < 0 for none: r then sleeps until an external event advances it).
func (s *scheduler) sleep(r int, at int64) {
	s.active[r] = false
	if at < 0 {
		s.sleepUntil[r] = math.MaxInt64
		return
	}
	s.sleepUntil[r] = at
	s.push(r, at)
}

// notify reports a link event arriving at router r at cycle at. Sleeping
// routers that would otherwise sleep through it are woken earlier; active
// routers see the event in their rings when they next sleep.
func (s *scheduler) notify(r int, at int64) {
	if s.active[r] || s.sleepUntil[r] <= at {
		return
	}
	s.sleepUntil[r] = at
	s.push(r, at)
}

// wakeDue re-activates every router with a calendar entry at or before now.
func (s *scheduler) wakeDue(now int64) {
	limit := uint64(now+1) << routerBits
	for len(s.heap) > 0 && s.heap[0] < limit {
		s.active[s.heap[0]&(1<<routerBits-1)] = true
		// Pop the min.
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.heap = s.heap[:n]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && s.heap[l] < s.heap[min] {
				min = l
			}
			if r < n && s.heap[r] < s.heap[min] {
				min = r
			}
			if min == i {
				break
			}
			s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
			i = min
		}
	}
}

// rebuild refreshes the step list from the active set.
func (s *scheduler) rebuild() {
	s.list = s.list[:0]
	for r, a := range s.active {
		if a {
			s.list = append(s.list, r)
		}
	}
}

// settle applies router r's post-step sleep decision for cycle now, where
// nev is the internal event horizon StepRouter returned and the generation
// calendar has already been refreshed. Routers with work next cycle stay
// active; everything else sleeps until its earliest pending event.
func (s *scheduler) settle(net *Network, r int, now, nev int64) {
	wake := nev
	if g := net.genWake[r]; g >= 0 && (wake < 0 || g < wake) {
		wake = g
	}
	if wake == now+1 {
		return // work due next cycle: stay active
	}
	if ext := net.core.EarliestExternal(r); ext >= 0 && (wake < 0 || ext < wake) {
		wake = ext
		if wake == now+1 {
			return
		}
	}
	s.sleep(r, wake)
}
