package sim

import (
	"math"

	"dragonfly/internal/topology"
)

// The active-router scheduler. The engine steps only routers that have (or
// may have) work to do in the current cycle; everything else is asleep.
// Correctness rests on one invariant: a sleeping router is always woken no
// later than its next event. Events come from three sources:
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
// entries whose event a Controller cancelled) cost a no-op step and
// nothing else.
//
// The engine advances time one group at a time (engine.go), so the
// calendar is per group: every group has its own wake heap and two dense
// summaries, the number of active routers and the earliest wake-up, which
// is all it takes to skip an idle group or to jump it to its next event.
// A group's scheduler state is written only by the worker that owns the
// group, so the engine stays race-free at any worker count.
type scheduler struct {
	active []bool
	// sleepUntil is the earliest scheduled wake-up of a sleeping router
	// (math.MaxInt64: sleeping with none); meaningless while active.
	sleepUntil []int64
	groupOf    []int32 // router → group
	// heaps are the per-group packed (cycle<<routerBits | router) min-heaps,
	// capacity-capped windows of one backing array: a heap that outgrows its
	// window (entries a later, earlier wake made redundant stay until they
	// fall due) reallocates privately via append.
	heaps    [][]uint64
	nActive  []int32 // per group: routers awake
	nextWake []int64 // per group: cycle of the heap minimum (math.MaxInt64: empty)
}

// routerBits sizes the router-id field of a packed calendar entry;
// topology.Params.Validate rejects networks whose ids would not fit.
const routerBits = topology.MaxRouterBits

func newScheduler(groupOf []int32, groups int) *scheduler {
	n := len(groupOf)
	s := &scheduler{
		active:     make([]bool, n),
		sleepUntil: make([]int64, n),
		groupOf:    groupOf,
		heaps:      make([][]uint64, groups),
		nActive:    make([]int32, groups),
		nextWake:   make([]int64, groups),
	}
	// Every router starts active: cycle 0 of an empty network settles each
	// router into its first sleep with the correct wake-up.
	arena := make([]uint64, n)
	per := n / groups
	for g := range s.heaps {
		s.heaps[g] = arena[g*per : g*per : (g+1)*per]
		s.nActive[g] = int32(per)
		s.nextWake[g] = math.MaxInt64
	}
	for r := range s.active {
		s.active[r] = true
	}
	return s
}

// wake puts router r into its group's step set.
func (s *scheduler) wake(r int) {
	if !s.active[r] {
		s.active[r] = true
		s.nActive[s.groupOf[r]]++
	}
}

// push enters a calendar entry for router r at cycle at.
func (s *scheduler) push(r int, at int64) {
	g := s.groupOf[r]
	h := append(s.heaps[g], uint64(at)<<routerBits|uint64(r))
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.heaps[g] = h
	s.nextWake[g] = int64(h[0] >> routerBits)
}

// sleep removes r from the active set with a wake-up at cycle at (pass
// at < 0 for none: r then sleeps until an external event advances it).
func (s *scheduler) sleep(r int, at int64) {
	s.active[r] = false
	s.nActive[s.groupOf[r]]--
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

// wakeDue re-activates every router of group g with a calendar entry at or
// before now.
func (s *scheduler) wakeDue(g int, now int64) {
	h := s.heaps[g]
	limit := uint64(now+1) << routerBits
	for len(h) > 0 && h[0] < limit {
		s.wake(int(h[0] & (1<<routerBits - 1)))
		// Pop the min.
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && h[l] < h[min] {
				min = l
			}
			if r < n && h[r] < h[min] {
				min = r
			}
			if min == i {
				break
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	s.heaps[g] = h
	s.nextWake[g] = math.MaxInt64
	if len(h) > 0 {
		s.nextWake[g] = int64(h[0] >> routerBits)
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
