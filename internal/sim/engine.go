package sim

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dragonfly/internal/router"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// watchdogInterval is how often the engine checks for global inactivity.
const watchdogInterval = 1024

// Run executes one simulation and returns its measurements. Results are
// bit-identical for any Workers value (the parallel engine only exchanges
// state through link events routed between barriers).
func Run(cfg Config) (*Result, error) {
	return RunWithPattern(cfg, nil)
}

// RunWithPattern is Run with an explicit traffic pattern instance,
// overriding cfg.Pattern (used by the application-allocation examples).
func RunWithPattern(cfg Config, pat traffic.Pattern) (*Result, error) {
	net, err := NewNetwork(&cfg, pat)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := RunNetwork(net, &cfg); err != nil {
		return nil, err
	}
	return newResult(net, &cfg, time.Since(start)), nil
}

// RunWithAppPattern runs a simulation with application-uniform traffic over
// the allocation of `groups` consecutive groups starting at `first`
// (Section III's job-scheduler use case).
func RunWithAppPattern(cfg Config, first, groups int) (*Result, error) {
	topo := topology.New(cfg.Topology)
	return RunWithPattern(cfg, traffic.NewAppUniform(topo, first, groups))
}

// clampWorkers resolves cfg.Workers against the network and machine size.
func clampWorkers(net *Network, cfg *Config) int {
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	if n := net.Topo.NumRouters(); workers > n {
		workers = n
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	return workers
}

// RunNetwork drives an already-built network through the configured warm-up
// and measurement phases using the active-router scheduler: quiescent
// routers are skipped and woken by the calendar (see schedule.go). The
// network's core is stepped in place, so RunNetwork and WarmupNetwork may
// be called any number of times on one network; every call counts its
// cycles from 0 (see Network.rebase).
func RunNetwork(net *Network, cfg *Config) error {
	return RunNetworkWithController(net, cfg, nil)
}

// RunNetworkWithController is RunNetwork with a reconfiguration Controller
// invoked between cycles (nil: none). Every engine calls the controller at
// the same cycles with the same pre-cycle state, so reconfigured runs stay
// bit-identical across engines and worker counts.
func RunNetworkWithController(net *Network, cfg *Config, ctrl Controller) error {
	return run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, clampWorkers(net, cfg), ctrl)
}

// WarmupNetwork drives the network through exactly `cycles` warm-up cycles
// without ever enabling measurement: the phase flips at now == warmup,
// which a warmup == total run never reaches. Used to prepare warm-state
// snapshots (see Network.Snapshot).
func WarmupNetwork(net *Network, cfg *Config, cycles int64) error {
	if cycles <= 0 {
		return nil
	}
	return run(net, cycles, cycles, clampWorkers(net, cfg), nil)
}

// run drives net's core with the sequential or the barrier-parallel
// scheduler engine.
func run(net *Network, warmup, total int64, workers int, ctrl Controller) error {
	if net.core == nil {
		return errors.New("sim: this network's routers were built outside the core; drive it with its builder's engine")
	}
	if workers > 1 {
		return Drive(net, warmup, total, ctrl, newParEngine(net, workers))
	}
	return Drive(net, warmup, total, ctrl, newSeqEngine(net))
}

// Engine is the router side of a cycle loop: Drive owns everything the
// engines share — controller, probes, phase flips, watchdog, early stop,
// run counters — and hands each cycle to the Engine to generate for and
// step the routers. The two scheduler engines of this package implement it
// over the core; internal/refmodel implements the dense seed loops over
// its own routers.
type Engine interface {
	// Wake forces router r into the next Cycle's step set (a Controller
	// touched its nodes). Engines that step every router ignore it.
	Wake(r int)
	// Cycle refreshes PiggyBack state, then generates for and steps the
	// routers that have work at cycle now.
	Cycle(now int64)
	// Steps returns the router-steps executed so far.
	Steps() int64
	// Close releases the engine's workers and hooks; called once.
	Close()
}

// batchIndex maps a measurement cycle to its batch-means span.
func batchIndex(now, warmup, measure int64) int {
	if measure <= 0 {
		return 0
	}
	return int((now - warmup) * stats.Batches / measure)
}

// driver is one run in progress. The per-cycle body lives in cycle() so the
// steady-state allocation gate (alloc_test.go) can drive — and meter —
// single cycles of exactly the production loop.
type driver struct {
	net      *Network
	e        Engine
	wake     func(r int)
	reconf   *reconfigRun
	probes   *probeRun
	fin      Finisher
	warmup   int64
	measure  int64
	batch    int
	lastSeen int64 // most recent activity observed by the watchdog
}

func newDriver(net *Network, warmup, total int64, ctrl Controller, e Engine) *driver {
	net.rebase()
	net.stoppedAt, net.engineSteps = 0, 0
	d := &driver{
		net:     net,
		e:       e,
		wake:    e.Wake,
		reconf:  newReconfigRun(net, ctrl),
		probes:  newProbeRun(net, warmup),
		warmup:  warmup,
		measure: total - warmup,
		batch:   -1,
	}
	d.fin, _ = ctrl.(Finisher)
	return d
}

// cycle advances the simulation by one cycle and reports whether a
// Finisher controller declared the workload complete.
func (d *driver) cycle(now int64) (bool, error) {
	// Reconfiguration first: membership changes must be visible to this
	// cycle's generation, and a force-woken router at worst executes a
	// provable no-op step. Workers are quiescent between cycles, so the
	// controller and the probes see stable state.
	d.reconf.step(now, d.wake)
	d.probes.step(now)
	// The warm-up→measurement transition and batch-means bookkeeping touch
	// the flags of every router (sleeping ones included — they must be
	// current whenever a router next steps), but only on the handful of
	// boundary cycles.
	if now == d.warmup {
		d.net.fab.SetMeasuring(true)
	}
	if now >= d.warmup {
		if b := batchIndex(now, d.warmup, d.measure); b != d.batch {
			d.batch = b
			d.net.fab.SetBatch(b)
		}
	}
	d.e.Cycle(now)
	if now%watchdogInterval == watchdogInterval-1 {
		var err error
		if d.lastSeen, err = watchdog(d.net, now, d.lastSeen); err != nil {
			return false, err
		}
	}
	return d.fin != nil && d.fin.Finished(now), nil
}

// finish tears the run down and publishes the step count.
func (d *driver) finish() {
	d.net.engineSteps = d.e.Steps()
	d.e.Close()
	d.probes.finish()
}

// Drive runs net for cycles [0, total) on engine e, enabling measurement
// at cycle warmup. It is the one cycle loop of the repository: RunNetwork
// and WarmupNetwork call it with the scheduler engines, internal/refmodel
// with the dense ones.
func Drive(net *Network, warmup, total int64, ctrl Controller, e Engine) error {
	if net.ranCycles > 0 && net.core == nil {
		e.Close()
		return errors.New("sim: only core-built networks can run more than once")
	}
	d := newDriver(net, warmup, total, ctrl, e)
	defer d.finish()
	ran := total
	for now := int64(0); now < total; now++ {
		done, err := d.cycle(now)
		if err != nil {
			return err
		}
		if done {
			ran = now + 1
			net.stoppedAt = ran
			break
		}
	}
	net.ranCycles += ran
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

// seqEngine is the sequential scheduler engine.
type seqEngine struct {
	net     *Network
	core    *router.Core
	sched   *scheduler
	wbuf    []router.LinkEvent
	pbDirty []bool
}

func newSeqEngine(net *Network) *seqEngine {
	s := &seqEngine{net: net, core: net.core, sched: newScheduler(net.Topo.NumRouters())}
	s.core.SetAllSinks(func(ev router.LinkEvent) {
		// Park the event in the destination port's ring immediately (its
		// pop stages look no earlier than the arrival cycle) and remember
		// it for the post-settle wake pass.
		s.core.PushDue(ev.Router, ev)
		s.wbuf = append(s.wbuf, ev)
	})
	s.pbDirty = net.pb.allDirty()
	return s
}

// Wake implements Engine.
func (s *seqEngine) Wake(r int) { s.sched.active[r] = true }

// Steps implements Engine.
func (s *seqEngine) Steps() int64 { return s.sched.steps }

// Close implements Engine.
func (s *seqEngine) Close() { s.core.SetAllSinks(nil) }

// Cycle implements Engine.
func (s *seqEngine) Cycle(now int64) {
	net, sched, core := s.net, s.sched, s.core
	// Scheduler-aware PiggyBack refresh: a group's PB bits depend only on
	// its own routers' link loads, which change only when one of those
	// routers steps — so only groups dirtied by the previous cycle's step
	// list need a refresh (all groups start dirty).
	for g, d := range s.pbDirty {
		if d {
			net.pb.updateGroup(g)
			s.pbDirty[g] = false
		}
	}
	sched.wakeDue(now)
	sched.rebuild()
	for _, r := range sched.list {
		net.Generate(r, now)
		nev := core.StepRouter(r, now)
		sched.settle(net, r, now, nev)
	}
	sched.steps += int64(len(sched.list))
	if s.pbDirty != nil {
		for _, r := range sched.list {
			s.pbDirty[net.groupOf[r]] = true
		}
	}
	// Events created this cycle towards already-sleeping routers
	// advance their wake-ups (settle saw everything earlier).
	for _, e := range s.wbuf {
		sched.notify(e.Router, e.At)
	}
	s.wbuf = s.wbuf[:0]
}

// parEngine steps disjoint router shards on persistent workers with a
// barrier per phase, each worker visiting only the active routers of its
// shard. Cross-router state only flows through link events routed between
// barriers, and all scheduler mutation (wake draining, sleeps, calendar
// pops) happens on the coordinator between barriers, so the result is
// identical to the sequential engine.
//
// Shards are re-partitioned by recent router activity every
// rebalanceInterval cycles (see partition.go): under adversarial patterns
// the active routers cluster, and a static id split would leave most
// workers idle while one steps the hot group. Re-partitioning happens on
// the coordinator between cycles and keeps spans contiguous and ascending,
// so results stay bit-identical to the sequential engine for any worker
// count.
type parEngine struct {
	net     *Network
	core    *router.Core
	sched   *scheduler
	workers int
	weight  []int64 // router-steps, halved at each re-partition
	shards  []span
	spare   []span  // second buffer; swaps with shards
	gShards []span  // static group shards for the PB refresh phase
	lists   [][]int // per-shard active routers this cycle
	// Workers may not touch the shared calendar or another shard's
	// routers, so each router's event sink appends to its shard's buffer
	// and the per-router internal event horizon goes into wakeAt; the
	// coordinator routes and drains both between barriers. Sinks follow
	// the shard map: assignSinks reruns after every re-partition, between
	// cycles, so each buffer keeps a single writer per phase.
	wbuf    [][]router.LinkEvent
	sinkFns []func(router.LinkEvent)
	wakeAt  []int64
	// pbDirty: the coordinator marks the groups of stepped routers dirty
	// between barriers; each worker refreshes — and clears — only the dirty
	// groups of its own group shard, so every flag keeps a single writer
	// per phase.
	pbDirty []bool
	// Each worker has a dedicated start channel so a fast worker can never
	// steal another worker's phase signal; done is the converging barrier.
	starts []chan int64
	done   chan struct{}
}

func newParEngine(net *Network, workers int) *parEngine {
	n := net.Topo.NumRouters()
	groups := net.Topo.NumGroups()
	e := &parEngine{
		net: net, core: net.core, sched: newScheduler(n), workers: workers,
		weight:  make([]int64, n),
		spare:   make([]span, 0, workers),
		gShards: make([]span, workers),
		lists:   make([][]int, workers),
		wbuf:    make([][]router.LinkEvent, workers),
		sinkFns: make([]func(router.LinkEvent), workers),
		wakeAt:  make([]int64, n),
		pbDirty: net.pb.allDirty(),
		starts:  make([]chan int64, workers),
		done:    make(chan struct{}, workers),
	}
	e.shards = balancedSpans(e.weight, workers, make([]span, 0, workers))
	for w := 0; w < workers; w++ {
		e.gShards[w] = span{lo: w * groups / workers, hi: (w + 1) * groups / workers}
		e.lists[w] = make([]int, 0, e.shards[w].hi-e.shards[w].lo)
		buf := &e.wbuf[w]
		e.sinkFns[w] = func(ev router.LinkEvent) { *buf = append(*buf, ev) }
		e.starts[w] = make(chan int64)
		go e.worker(w)
	}
	e.assignSinks()
	return e
}

func (e *parEngine) assignSinks() {
	for w, s := range e.shards {
		for r := s.lo; r < s.hi; r++ {
			e.core.SetSink(r, e.sinkFns[w])
		}
	}
}

func (e *parEngine) worker(w int) {
	net := e.net
	for now := range e.starts[w] {
		if e.pbDirty != nil {
			// Phase 1: refresh the dirty PB groups of this worker's shard.
			for g := e.gShards[w].lo; g < e.gShards[w].hi; g++ {
				if e.pbDirty[g] {
					net.pb.updateGroup(g)
					e.pbDirty[g] = false
				}
			}
			e.done <- struct{}{}
			// Phase 2 signal from the coordinator.
			if _, ok := <-e.starts[w]; !ok {
				return
			}
		}
		for _, r := range e.lists[w] {
			net.Generate(r, now)
			e.wakeAt[r] = e.core.StepRouter(r, now)
		}
		e.done <- struct{}{}
	}
}

// Wake implements Engine.
func (e *parEngine) Wake(r int) { e.sched.active[r] = true }

// Steps implements Engine.
func (e *parEngine) Steps() int64 { return e.sched.steps }

// Close implements Engine.
func (e *parEngine) Close() {
	for _, ch := range e.starts {
		close(ch)
	}
	e.core.SetAllSinks(nil)
}

// Cycle implements Engine. It runs on the coordinator; workers are
// quiescent on entry and on return.
func (e *parEngine) Cycle(now int64) {
	sched, workers := e.sched, e.workers
	if now > 0 && now%rebalanceInterval == 0 {
		if fresh := balancedSpans(e.weight, workers, e.spare); !spansEqual(fresh, e.shards) {
			e.shards, e.spare = fresh, e.shards[:0]
			e.assignSinks()
		} else {
			e.spare = fresh[:0]
		}
		// Halve rather than reset: load shifts are tracked with a
		// little hysteresis instead of re-cutting on one quiet window.
		for r := range e.weight {
			e.weight[r] >>= 1
		}
	}
	sched.wakeDue(now)
	next := 0
	for w := range e.lists {
		e.lists[w] = e.lists[w][:0]
	}
	for r, a := range sched.active {
		if !a {
			continue
		}
		for r >= e.shards[next].hi {
			next++
		}
		e.lists[next] = append(e.lists[next], r)
	}
	phases := 1
	if e.pbDirty != nil {
		phases = 2
	}
	for ph := 0; ph < phases; ph++ {
		for w := 0; w < workers; w++ {
			e.starts[w] <- now
		}
		for w := 0; w < workers; w++ {
			<-e.done
		}
	}
	// Sleep decisions first, then event routing: a sleep that missed
	// an event created this same cycle is corrected by notify, and a
	// router woken before its events' arrival re-settles against the
	// by-then routed rings.
	for w := 0; w < workers; w++ {
		for _, r := range e.lists[w] {
			sched.settle(e.net, r, now, e.wakeAt[r])
			e.weight[r]++
			if e.pbDirty != nil {
				e.pbDirty[e.net.groupOf[r]] = true
			}
		}
		sched.steps += int64(len(e.lists[w]))
	}
	for w := 0; w < workers; w++ {
		for _, ev := range e.wbuf[w] {
			e.core.PushDue(ev.Router, ev)
			sched.notify(ev.Router, ev.At)
		}
		e.wbuf[w] = e.wbuf[w][:0]
	}
}
