package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"dragonfly/internal/router"
	"dragonfly/internal/workload"
)

// watchdogInterval is how often the driver checks for global inactivity.
const watchdogInterval = 1024

// Run executes one simulation and returns its measurements. Results are
// bit-identical for any Workers value (workers only exchange state through
// link events routed at the barrier between two windows).
func Run(cfg Config) (*Result, error) {
	return RunWorkload(cfg, nil)
}

// RunWorkload is Run with the workload wl as the traffic in place of
// cfg.Pattern (nil: cfg.Pattern); the result reports wl's jobs.
func RunWorkload(cfg Config, wl *workload.Workload) (*Result, error) {
	net, err := NewNetwork(&cfg, wl)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := RunNetwork(net, &cfg); err != nil {
		return nil, err
	}
	return newResult(net, &cfg, time.Since(start)), nil
}

// clampWorkers resolves cfg.Workers against the network and machine size.
func clampWorkers(net *Network, cfg *Config) int {
	return min(max(cfg.Workers, 1), net.topo.NumGroups(), runtime.NumCPU())
}

// RunNetwork drives an already-built network through the configured warm-up
// and measurement phases, skipping quiescent routers until their next event
// (see engine). The network's core is stepped in place, so RunNetwork and
// WarmupNetwork may be called any number of times on one network; every
// call counts its cycles from 0 (see Network.rebase).
func RunNetwork(net *Network, cfg *Config) error {
	return RunNetworkWithController(net, cfg, nil)
}

// RunNetworkWithController is RunNetwork with a reconfiguration Controller
// invoked between windows (nil: none). Every engine calls the controller at
// the same cycles with the same pre-cycle state, so reconfigured runs stay
// bit-identical across engines and worker counts.
func RunNetworkWithController(net *Network, cfg *Config, ctrl Controller) error {
	return run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, clampWorkers(net, cfg), ctrl)
}

// WarmupNetwork drives the network through exactly `cycles` warm-up cycles
// without ever measuring: cycles from warmup on are measured, and a
// warmup == total run has none. Used to prepare warm-state snapshots (see
// Network.Snapshot).
func WarmupNetwork(net *Network, cfg *Config, cycles int64) error {
	if cycles <= 0 {
		return nil
	}
	return run(net, cycles, cycles, clampWorkers(net, cfg), nil)
}

// run drives net's core with the group-major engine on `workers` workers.
func run(net *Network, warmup, total int64, workers int, ctrl Controller) error {
	if net.core == nil {
		return errors.New("sim: this network's routers were built outside the core; drive it with its builder's engine")
	}
	return Drive(net, warmup, total, ctrl, newEngine(net, workers))
}

// Engine is the router side of the time loop: Drive owns everything the
// engines share — controller, probes, watchdog, early stop, run counters —
// and cuts the run into windows in which none of that happens; the Engine
// generates for and steps the routers through one window at a time. The
// engine of this package implements it over the core; internal/refmodel
// implements the dense seed loops over its own routers.
type Engine interface {
	// Wake tells the engine that router r's generation calendar changed (a
	// Controller touched its nodes, Network.genWake is already refreshed):
	// an engine that lets routers sleep makes sure r is stepped at its next
	// arrival. Engines that step every router ignore it.
	Wake(r int)
	// Lookahead is the longest window the engine can be handed: how many
	// cycles it may advance one part of the network without looking at the
	// rest. Engines that step cycle by cycle return 1.
	Lookahead() int64
	// Advance keeps PiggyBack state current, generates for and steps the
	// routers that have work through cycles [from, to), to-from <= Lookahead.
	Advance(from, to int64)
	// Steps returns the router-steps executed so far.
	Steps() int64
	// Close releases the engine's workers and hooks; called once.
	Close()
}

// settler is an optional Engine extension for engines that apply state-only
// events lazily (router.Core.Settle): the routers they skip hold releases,
// credits and arrivals that have fallen due but changed nothing the engine
// acts on. Settle(upTo) applies everything due by the end of cycle upTo, on
// every router, so that whoever reads router state next — a probe sample,
// the caller of Drive — finds what an engine that steps every router every
// cycle leaves behind. The driver calls it between windows, with every
// group standing at cycle upTo+1: before a probe sample and when the run
// ends. Engines that step every router have nothing to settle and do not
// implement it.
type settler interface {
	Settle(upTo int64)
}

// driver is one run in progress. The per-window body lives in window() so
// the steady-state allocation gate (alloc_test.go) can drive — and meter —
// single windows of exactly the production loop.
type driver struct {
	net      *Network
	e        Engine
	wake     func(r int)
	reconf   *reconfigRun
	probes   *probeRun
	fin      finisher
	settler  settler
	total    int64
	now      int64 // the cycle the next window starts at
	windows  int64
	lastSeen int64 // most recent activity observed by the watchdog
}

func newDriver(net *Network, warmup, total int64, ctrl Controller, e Engine) *driver {
	net.rebase()
	net.stoppedAt, net.engineSteps, net.engineWindows = 0, 0, 0
	net.fab.SetPhases(warmup, total)
	d := &driver{
		net:    net,
		e:      e,
		wake:   e.Wake,
		reconf: newReconfigRun(net, ctrl),
		probes: newProbeRun(net, warmup),
		total:  total,
	}
	d.fin, _ = ctrl.(finisher)
	d.settler, _ = e.(settler)
	if d.probes != nil {
		d.probes.settler = d.settler
	}
	return d
}

// horizon returns the end of the window that starts at cycle from: the
// engine's lookahead, cut at every cycle at which the driver itself has to
// look at — or change — the whole network. DESIGN.md ("Time windows") lists
// the cuts and why each exists. The phases are not among them: the fabric
// derives them from the cycle number (Fabric.SetPhases).
func (d *driver) horizon(from int64) int64 {
	to := min(from+d.e.Lookahead(), d.total, (from/watchdogInterval+1)*watchdogInterval)
	if d.reconf != nil && d.reconf.next > from {
		to = min(to, d.reconf.next)
	}
	if d.probes != nil {
		to = min(to, (from/d.probes.every+1)*d.probes.every)
	}
	return to
}

// window advances the simulation by one window starting at cycle from. It
// returns the cycle the window ended at and whether a Finisher controller
// declared the workload complete.
func (d *driver) window(from int64) (to int64, done bool, err error) {
	// Reconfiguration first: membership changes must be visible to this
	// cycle's generation. Workers are quiescent between windows and every
	// group stands at cycle from, so the controller and the probes see
	// stable state (the probes after settling it, see settler).
	applied := d.reconf.step(from, d.wake)
	d.probes.step(from)
	to = d.horizon(from)
	// A Finisher may only finish at one of its own events, so it is asked
	// right after Apply, and a finished run is cut after this one cycle.
	if applied && d.fin != nil && d.fin.Finished(from) {
		to, done = from+1, true
	}
	d.e.Advance(from, to)
	d.now = to
	d.windows++
	if to%watchdogInterval == 0 {
		if d.lastSeen, err = watchdog(d.net, to-1, d.lastSeen); err != nil {
			return to, false, err
		}
	}
	return to, done, nil
}

// finish settles the state the run leaves behind — results, state vectors,
// snapshots and the next run on this network all read it —, tears the run
// down and publishes the work counters.
func (d *driver) finish() {
	if d.settler != nil {
		d.settler.Settle(d.now - 1)
	}
	d.net.engineSteps, d.net.engineWindows = d.e.Steps(), d.windows
	d.e.Close()
	d.probes.finish()
}

// Drive runs net for cycles [0, total) on engine e, measuring from cycle
// warmup on (the fabric is told both once, see Fabric.SetPhases). It is the
// one time loop of the repository: RunNetwork and WarmupNetwork call it with
// the group-major engine, internal/refmodel with the dense ones.
func Drive(net *Network, warmup, total int64, ctrl Controller, e Engine) error {
	if net.ranCycles > 0 && net.core == nil {
		e.Close()
		return errors.New("sim: only core-built networks can run more than once")
	}
	d := newDriver(net, warmup, total, ctrl, e)
	defer d.finish()
	now := int64(0)
	for now < total {
		to, done, err := d.window(now)
		if err != nil {
			return err
		}
		now = to
		if done {
			net.stoppedAt = now
			break
		}
	}
	net.ranCycles += now
	return nil
}

// rebase shifts the network's state so that its next cycle is cycle 0:
// every engine run counts from 0, so state left behind by ranCycles
// earlier cycles moves that far into the past (exactly — only differences
// between cycles are ever computed). Called at the start of every run and
// on snapshot templates; a no-op on a network that has not run.
func (net *Network) rebase() {
	delta := net.ranCycles
	if delta == 0 {
		return
	}
	net.core.Rebase(delta)
	for n := range net.nodes {
		net.nodes[n].nextGen -= delta
	}
	for r := range net.genWake {
		net.refreshGenWake(r)
	}
	net.ranCycles = 0
}

// watchdog detects a fully stalled network: packets in flight but no router
// granted or delivered anything for several intervals. It inspects every
// router directly, so detection is independent of the scheduler — a
// network that deadlocks and goes fully quiescent is still caught.
func watchdog(net *Network, now, lastSeen int64) (int64, error) {
	latest := int64(-1)
	for r := range net.genWake {
		if a := net.fab.Stats(r).LastActivity; a > latest {
			latest = a
		}
	}
	if latest > lastSeen {
		return latest, nil
	}
	// The stall horizon is widened by the longest wired link: with
	// per-link runtime latencies a healthy network may legitimately show
	// no router activity for a full time of flight (every packet airborne
	// on long cables), which the fixed 2-interval window of the seed
	// would misread as a deadlock.
	if net.InFlight() > 0 && now-latest > 2*watchdogInterval+net.fab.MaxLinkLatency() {
		return latest, fmt.Errorf("sim: no progress since cycle %d (now %d) with packets in flight: routing deadlock", latest, now)
	}
	return lastSeen, nil
}

// engine is the group-major engine. Time advances in windows no longer than
// the shortest inter-group link (Core.Lookahead): nothing a group does
// inside a window can reach another group before the window ends, so each
// group is stepped through the whole window on its own — ascending router
// order, cycle by cycle, exactly the per-cycle body of a cycle-major loop —
// while its state is still in cache. Link events are parked at the
// destination port the moment they are created (how far the sender runs
// ahead of its receiver does not matter: what a port can hold is bounded by
// the credit protocol, see Core.PushDue); DESIGN.md ("Time windows") has
// the causality argument.
//
// Only routers that can do something in the current cycle are stepped;
// everything else sleeps. A router steps when the step can grant, send,
// transfer, deliver or generate. Events that only change what it holds —
// a buffer release, a credit for an output that is not waiting for one, a
// packet still crossing the input pipeline — wake nobody: they are parked
// in the router's calendars, queues and rings and applied by
// router.Core.Settle the next time anyone looks. Correctness rests on one
// invariant: a skipped step leaves nothing a stepped router or an observer
// can read before Settle. It has two halves.
//
// A sleeping router's wakeAt is never later than the next cycle at which it
// can act. That cycle comes from three sources:
//
//   - internal work: StepRouter returns the earliest future cycle with
//     internal work (pipeline delays elapsing, crossbar transfers
//     completing, the serializer of a loaded output freeing, allocator
//     retries, a credit in flight towards a starved output);
//   - in-flight link events: every event is parked at the destination
//     port the moment it is created (Core.PushDue), which answers with the
//     cycle the destination has to step at because of it — the arrival
//     plus the input pipeline for a packet, the arrival for a credit to a
//     starved output, never for any other credit. Core.EarliestExternal
//     repeats the answer for the packets already parked;
//   - generation: every node's next Bernoulli arrival is known in advance
//     (Network.genWake).
//
// After a step a router's wakeAt is the min of the three (settle), so
// everything pending at that moment is covered. Events created afterwards
// reach it through the event sink (Core.SetSink → deliver), which lowers the
// sleeper's wakeAt to PushDue's answer. For a router that is awake this
// changes nothing — its next settle finds the event at its port. A step
// that is skipped under this rule would have popped what fell due and done
// nothing else (no grant, no send, no RNG consumption).
//
// And everyone who reads a router's state settles it first. There are three
// settle points: StepRouter, before its stages run (the router reading
// itself); the PiggyBack capture, before a router's row of its group's
// bits is recomputed (pbState.capture, the one reader of *other* routers'
// state inside a window); and Settle, which
// the driver calls before a probe sample and when the run ends (settler).
// Settling applies each event with its own due cycle, so when it happens
// leaves no trace, and results, probe streams and state vectors are
// bit-identical to the dense engines that step every router every cycle.
//
// With more than one worker, each owns a contiguous span of groups and
// runs the same body over it; there is one barrier per window, at which
// the events that crossed a worker boundary are routed. Spans are re-cut
// by recent group activity every rebalanceInterval cycles (partition.go).
// A group's routers, wake-ups and PiggyBack bits are only ever touched by
// its owner, every worker steps in an allocator scratch of its own
// (Core.SizeScratch), and events reach their ports in the sender's order
// whatever the partition, so results are identical for any worker count.
type engine struct {
	net  *Network
	core *router.Core
	per  int // routers per group

	// wakeAt is, per router, the cycle it next steps at: at or before its
	// group's current cycle while it has work every cycle, its earliest
	// pending event while it sleeps, math.MaxInt64 when nothing is pending.
	// Every router starts at 0: cycle 0 of an empty network settles each
	// into its first sleep.
	wakeAt []int64
	// nextWake is, per group, the minimum of its routers' wakeAt: one array
	// read skips an idle group or jumps it to its next event. It is exact,
	// not a lower bound, so no pass over a group steps nobody.
	nextWake []int64

	groups []groupRun
	weight []int64                  // per group: router-steps, halved at each re-partition
	spans  []span                   // per worker: the groups it owns
	sinks  []func(router.LinkEvent) // per group: its routers' event sink (sinkOf)
	// Worker 0 is the caller of Advance; every other worker has a dedicated
	// start channel so a fast worker can never steal another's window, and
	// done is the converging barrier. The start channels and their
	// goroutines are the run's (Close ends them); everything else is the
	// network's, kept in Network.eng for its next run.
	starts []chan [2]int64
	done   chan struct{}
}

// groupRun is the engine's per-group state.
type groupRun struct {
	own   span  // the owning worker's groups
	steps int64 // router-steps executed
	// out holds the link events bound for groups of other workers until the
	// window's barrier; nil forever on a single worker.
	out []router.LinkEvent
}

// newEngine readies the engine of one run of net on `workers` workers.
func newEngine(net *Network, workers int) *engine {
	workers = min(max(workers, 1), net.topo.NumGroups())
	e := engineOf(net, workers)
	net.pb.begin(e.core)
	e.core.SizeScratch(workers)
	e.partition(workers)
	for g, sink := range e.sinks {
		for r := g * e.per; r < (g+1)*e.per; r++ {
			e.core.SetSink(r, sink)
		}
	}
	for w := 1; w < workers; w++ {
		start := make(chan [2]int64)
		e.starts = append(e.starts, start)
		go func(w int) {
			for win := range start {
				e.advanceSpan(w, win[0], win[1])
				e.done <- struct{}{}
			}
		}(w)
	}
	return e
}

// engineOf returns net's engine arrays for a run on `workers` workers: those
// of its last run, reset to what fresh ones hold, when that run had the same
// shape and worker count, new ones otherwise. A network that runs again
// therefore allocates only its workers' goroutines and start channels.
func engineOf(net *Network, workers int) *engine {
	groups := net.topo.NumGroups()
	if e := net.eng; e != nil && len(e.wakeAt) == net.topo.NumRouters() && len(e.groups) == groups && len(e.spans) == workers {
		clear(e.wakeAt)
		clear(e.nextWake)
		clear(e.weight)
		for g := range e.groups {
			e.groups[g].steps = 0
		}
		e.starts = e.starts[:0]
		return e
	}
	e := &engine{
		net: net, core: net.core,
		per:      net.topo.NumRouters() / groups,
		wakeAt:   make([]int64, net.topo.NumRouters()),
		nextWake: make([]int64, groups),
		groups:   make([]groupRun, groups),
		weight:   make([]int64, groups),
		sinks:    make([]func(router.LinkEvent), groups),
		done:     make(chan struct{}, workers-1),
	}
	for g := range e.sinks {
		e.sinks[g] = e.sinkOf(g)
	}
	net.eng = e
	return e
}

// sinkOf returns the event sink that all of group g's routers share: an
// event for a group of the same worker is delivered at once (Settle looks no
// earlier than the arrival cycle); an event that crosses a worker boundary
// waits for the barrier.
func (e *engine) sinkOf(g int) func(router.LinkEvent) {
	gr := &e.groups[g]
	return func(ev router.LinkEvent) {
		if dst := e.net.topo.RouterGroup(ev.Router); dst < gr.own.lo || dst >= gr.own.hi {
			gr.out = append(gr.out, ev)
			return
		}
		e.deliver(ev)
	}
}

// deliver parks a link event at its destination port and, if the
// event can make the destination act, lowers its wake-up to the cycle it can.
func (e *engine) deliver(ev router.LinkEvent) {
	if at := e.core.PushDue(ev.Router, ev); at >= 0 {
		e.wake(ev.Router, at)
	}
}

// partition cuts the groups into one span per worker by recent activity
// and tells every group its owner's span.
func (e *engine) partition(workers int) {
	e.spans = balancedSpans(e.weight, workers, e.spans)
	for _, s := range e.spans {
		for g := s.lo; g < s.hi; g++ {
			e.groups[g].own = s
		}
	}
	// Halve rather than reset: load shifts are tracked with a little
	// hysteresis instead of re-cutting on one quiet interval.
	for g := range e.weight {
		e.weight[g] >>= 1
	}
}

// Wake implements Engine: r's nodes were switched on or off, so its wake-up
// may be later than its next arrival. A calendar that only moved away costs
// at worst one step that finds nothing to do.
func (e *engine) Wake(r int) {
	if gen := e.net.genWake[r]; gen >= 0 {
		e.wake(r, gen)
	}
}

// Settle implements Settler.
func (e *engine) Settle(upTo int64) {
	for r := range e.wakeAt {
		if e.core.Settle(r, upTo) {
			e.net.pb.markStale(r)
		}
	}
}

// wake lowers router r's wake-up to cycle at, if it is not due earlier
// already. Only the owner of r's group may call it while a window runs.
func (e *engine) wake(r int, at int64) {
	if at < e.wakeAt[r] {
		e.wakeAt[r] = at
		g := e.net.topo.RouterGroup(r)
		e.nextWake[g] = min(e.nextWake[g], at)
	}
}

// settle returns the cycle router r next steps at, after its step of cycle
// now: the min of the internal event horizon nev that StepRouter returned,
// the generation calendar (already refreshed by Generate) and the earliest
// cycle a packet in its arrival queues can be allocated at. now+1 keeps it awake.
func (e *engine) settle(r int, now, nev int64) int64 {
	at := int64(math.MaxInt64)
	if nev >= 0 {
		at = nev
	}
	if gen := e.net.genWake[r]; gen >= 0 && gen < at {
		at = gen
	}
	if at == now+1 {
		return at // work due next cycle: no need to look at the arrivals
	}
	if ext := e.core.EarliestExternal(r); ext >= 0 && ext < at {
		at = ext
	}
	return at
}

// Lookahead implements Engine.
func (e *engine) Lookahead() int64 { return e.core.Lookahead() }

// Steps implements Engine.
func (e *engine) Steps() int64 {
	var n int64
	for g := range e.groups {
		n += e.groups[g].steps
	}
	return n
}

// Close implements Engine.
func (e *engine) Close() {
	for _, ch := range e.starts {
		close(ch)
	}
	e.core.SetAllSinks(nil)
	e.net.pb.end()
}

// Advance implements Engine. Workers are quiescent on entry and on return.
func (e *engine) Advance(from, to int64) {
	for _, ch := range e.starts {
		ch <- [2]int64{from, to}
	}
	e.advanceSpan(0, from, to)
	if len(e.starts) == 0 {
		return
	}
	for range e.starts {
		<-e.done
	}
	// Route what crossed a worker boundary, in ascending sender order. Every
	// such event travels a global link, so it falls due in a later window.
	for g := range e.groups {
		gr := &e.groups[g]
		for _, ev := range gr.out {
			e.deliver(ev)
		}
		clear(gr.out) // drop the packet references
		gr.out = gr.out[:0]
	}
	if to/rebalanceInterval != from/rebalanceInterval {
		e.partition(len(e.spans))
	}
}

// advanceSpan steps the groups of worker w through cycles [from, to), one
// group at a time, in the worker's allocator scratch.
func (e *engine) advanceSpan(w int, from, to int64) {
	net, core, pb := e.net, e.core, e.net.pb
	own := e.spans[w]
	for g := own.lo; g < own.hi; g++ {
		lo := g * e.per
		wakeAt := e.wakeAt[lo : lo+e.per]
		var steps int64
		for now := from; now < to; now++ {
			next := e.nextWake[g]
			if next > now {
				// Idle: jump to the group's next wake-up, or to the window's
				// last cycle when that comes first.
				now = min(next, to-1)
			}
			if now == to-1 {
				pb.captureGroup(g, now)
			}
			if next > now {
				break // the window's last cycle, and nothing due in it
			}
			for i, at := range wakeAt {
				if at <= now {
					pb.stepping(g, lo+i, now)
					net.Generate(lo+i, now)
					wakeAt[i] = e.settle(lo+i, now, core.StepRouter(lo+i, now, w))
					steps++
				}
			}
			// Recomputed after the pass, not folded into it: a later router of
			// the group may have lowered an earlier one's wake-up.
			next = math.MaxInt64
			for _, at := range wakeAt {
				next = min(next, at)
			}
			e.nextWake[g] = next
		}
		if steps > 0 {
			e.groups[g].steps += steps
			e.weight[g] += steps
		}
	}
}
