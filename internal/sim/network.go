package sim

import (
	"math"
	"slices"
	"strings"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// nodeState is the per-node traffic source.
type nodeState struct {
	rnd          rng.Source
	nextGen      int64
	seq          uint64
	q            float64 // generation probability per cycle (per-node for workloads)
	logOneMinusQ float64 // cached for geometric inter-arrival sampling
	active       bool
}

// Fabric is the one seam through which the shared simulation code —
// generation, PiggyBack refresh, probes, the watchdog, job polling and
// result collection — reaches router state. *router.Core is the production
// implementation (and the only one the engines in this package step);
// internal/refmodel implements it over the dense per-router oracle, so the
// same shared code drives both sides of every bit-identity test.
type Fabric interface {
	// Generation side (see router.Core for the contracts).
	InjectionBacklog(r, nodeIdx int) int
	NoteBacklogged(r int, now int64, src int)
	EnqueueInjection(r int, now int64, p *packet.Packet)
	// OutputUsed is the PiggyBack refresh input.
	OutputUsed(r, port int) int
	// SetPhases announces, once per run and before its first cycle, that
	// cycles [warmup, total) are measured. The fabric derives "measuring" and
	// the batch-means span from the cycle numbers it is handed; nothing is
	// flipped between cycles.
	SetPhases(warmup, total int64)
	// Read side: watchdog, probes, job polling, results, state comparison.
	// MaxLinkLatency is the longest wired link: the watchdog widens its
	// no-progress horizon by it, because with long cables a healthy network
	// may show no router activity for a full flight time.
	MaxLinkLatency() int64
	InFlight() int
	Stats(r int) *stats.Router
	JobStats(r int) []stats.Job
	LiveJobDelivered(r, job int) int64
	ProbeQueues(r int) (inPhits, outPhits int64)
	ProbeLinks(r int, now int64) router.LinkProbe
	StateVector(r int, v []int64) []int64
}

// Network is a fully wired simulator instance.
type Network struct {
	topo *topology.Topology
	// Routers are the per-router views over the core, indexed by router id
	// (nil on a network built over another Fabric).
	Routers []router.View

	// fab is the router state behind the seam; core is the same object when
	// the network was built by NewNetwork or restored from a snapshot — the
	// state the engines of this package step in place, run after run — and
	// nil on an oracle network.
	fab  Fabric
	core *router.Core

	cfg *Config
	// rcfg is the router the network is built with (Config.routerConfig);
	// the fabric reads it through Wiring.Cfg.
	rcfg router.Config
	mech routing.Mechanism
	env  routing.Env
	// Traffic is either the named pattern cfg.Pattern or a workload, wl:
	// exactly one of the two is non-nil.
	pattern traffic.Pattern
	wl      *workload.Workload
	pb      *pbState
	nodes   []nodeState
	genProb float64 // packet generation probability per node per cycle

	// free holds the network's packets that sit in no queue. Generate takes
	// from it, delivery and a restore over this network give back, so a
	// network that runs again reuses the packets of its earlier runs.
	free packet.Free

	// eng is the engine state of the network's last run, reused by the next
	// run of the same shape and worker count (see engineOf).
	eng *engine

	// nodeJob is the workload's live node→job map (Workload.NodeJobs),
	// borrowed read-only and shared with the fabric (nil without job
	// attribution). Packets are stamped with it at generation, so a
	// scheduled workload's Place/Release between cycles retargets
	// attribution directly.
	nodeJob []int32

	// latency is the resolved per-link latency model; uniform caches the
	// constant-latency fast path so the per-packet minimal-path pricing in
	// generate stays two multiplies for the common case.
	latency topology.LatencyModel
	uniform *topology.UniformLatency // non-nil when latency is uniform

	// genWake caches, per router, the earliest future arrival among its
	// nodes' generation processes (-1: none). generate keeps it current;
	// the engine reads it in O(1) when deciding how long a router may
	// sleep. Each entry is only touched by the worker owning the router.
	// Like nodes, it is nil on a construction template (see newNetworkOn).
	genWake []int64

	// engineSteps is the number of router-steps the last engine run
	// executed, engineWindows the number of time windows it was cut into;
	// the scheduler tests read them to quantify how many quiescent
	// router-cycles were skipped and how long the engine ran between looks
	// at the whole network.
	engineSteps, engineWindows int64

	// nodeRnd0 holds every node RNG's stream position from just before its
	// first inter-arrival draw in NewNetwork — the only build-time draw
	// that depends on the offered load. Construction snapshots rewind node
	// streams to these positions so a restore can retarget the load and
	// redraw, reproducing a cold build at the new load bit-for-bit.
	// Immutable after construction and shared by snapshots, clones and the
	// construction templates of one family.
	nodeRnd0 []rng.Source

	// ranCycles counts the cycles the engines have driven this network
	// through since construction (or restore). Every run restarts its
	// cycle counter at 0, so a run on a network that has already run first
	// shifts the state ranCycles into the past (see rebase); Snapshot
	// therefore always captures state valid at cycle 0.
	ranCycles int64

	// stoppedAt is the cycle count the last engine run actually executed
	// when a Finisher controller ended it before the configured horizon
	// (0: the run went the full distance). newResult uses it to scale
	// per-cycle metrics by measured — not configured — cycles.
	stoppedAt int64

	// telemetry is the probe summary of the most recent engine run (nil
	// without probes); newResult attaches it to the Result.
	telemetry *telemetry.Summary
}

// NewNetwork builds and wires a network from the configuration. Its traffic
// is the workload wl, or the pattern cfg.Pattern names when wl is nil.
func NewNetwork(cfg *Config, wl *workload.Workload) (*Network, error) {
	return newCoreNetwork(cfg, wl, router.NewCore)
}

// newCoreNetwork is NewNetwork over either constructor of the core: the
// full one, or the stateless template NewSnapshot freezes.
func newCoreNetwork(cfg *Config, wl *workload.Workload, build func(router.Wiring) (*router.Core, error)) (*Network, error) {
	return NewNetworkOn(cfg, wl, func(w router.Wiring) (Fabric, error) { return build(w) })
}

// NewNetworkOn is NewNetwork over a caller-built Fabric: everything around
// the routers — pattern or workload, routing environment, PiggyBack state,
// traffic sources, job attribution — is set up here, and build is handed
// the wiring to construct the routers from. It exists for internal/refmodel;
// networks built this way are driven through Drive with the builder's own
// Engine, not RunNetwork.
func NewNetworkOn(cfg *Config, wl *workload.Workload, build func(router.Wiring) (Fabric, error)) (*Network, error) {
	net, err := newNetworkOn(cfg, wl, nil, build)
	if err != nil {
		return nil, err
	}
	net.sizeSources()
	net.aimSources()
	return net, nil
}

// newNetworkOn is NewNetworkOn without the traffic sources' state — the
// per-node generation processes and the genWake calendar — which is all a
// construction template leaves out: a restore sizes and aims them itself.
// fam, when non-nil, is a construction template of the same family (see
// FamilyOf): the network borrows its topology and the node streams'
// pre-draw positions, and build its core's wiring and arbitration streams
// (router.Wiring.Family), instead of computing them again.
func newNetworkOn(cfg *Config, wl *workload.Workload, fam *Network, build func(router.Wiring) (Fabric, error)) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mech, err := routing.ByName(cfg.Mechanism)
	if err != nil {
		return nil, err
	}
	var topo *topology.Topology
	if fam != nil {
		topo = fam.topo
	} else {
		topo = topology.New(cfg.Topology)
	}

	root := rng.New(cfg.Seed)
	net := &Network{
		topo: topo,
		cfg:  cfg,
		rcfg: cfg.routerConfig(mech),
		mech: mech,
	}
	rcfg := &net.rcfg
	net.genProb = cfg.Load / float64(rcfg.PacketSize)
	if wl == nil {
		if net.pattern, err = traffic.ByName(topo, cfg.Pattern, root.Split()); err != nil {
			return nil, err
		}
	}
	net.wl = wl

	net.env = routing.Env{Topo: topo, Cfg: cfg.Routing, PacketSize: rcfg.PacketSize, LocalVCs: rcfg.LocalVCs, GlobalVCs: rcfg.GlobalVCs}
	if strings.HasPrefix(mech.Name(), "Src-") {
		net.pb = newPBState(net)
		net.env.Group = net.pb.view
	}

	// Per-job attribution: when the workload has jobs, every router
	// accumulates per-job counters attributed by packet source.
	numJobs := net.numJobs()
	if numJobs > 0 {
		net.nodeJob = wl.NodeJobs()
	}

	// Routers and links. Latencies come from the run's latency model, per
	// link.
	net.latency = cfg.LatencyModel
	if u, ok := net.latency.(topology.UniformLatency); ok {
		net.uniform = &u
	}
	w := router.Wiring{
		Topo: topo, Cfg: rcfg, Mech: mech, Rng: root.Split(), Latency: net.latency,
		Binding: net.binding(), NumJobs: numJobs,
	}
	if fam != nil {
		w.Family = fam.core
	}
	if net.fab, err = build(w); err != nil {
		return nil, err
	}
	if core, ok := net.fab.(*router.Core); ok {
		net.core, net.Routers = core, core.Views()
	}

	if fam != nil {
		net.nodeRnd0 = fam.nodeRnd0
		return net, nil
	}
	net.nodeRnd0 = make([]rng.Source, topo.NumNodes())
	nodeRng := root.Split()
	for n := range net.nodeRnd0 {
		net.nodeRnd0[n] = *nodeRng.Split() // pre-draw position, for load retargeting
	}
	return net, nil
}

// sizeSources sizes the per-node generation processes and the genWake
// calendar to the topology, reusing the capacity the network already owns;
// the contents are stale until aimSources writes every field.
func (net *Network) sizeSources() {
	net.nodes = slices.Grow(net.nodes[:0], net.topo.NumNodes())[:net.topo.NumNodes()]
	net.genWake = slices.Grow(net.genWake[:0], net.topo.NumRouters())[:net.topo.NumRouters()]
}

// binding returns the hooks the network's fabric reports to.
func (net *Network) binding() router.Binding {
	b := router.Binding{
		Env:          &net.env,
		Recycle:      net.free.Put,
		RecycleQueue: net.free.PutQueue,
		NodeJob:      net.nodeJob,
	}
	if t := net.cfg.Tracer; t != nil {
		// Each router gets its own shard hook; the engines keep the
		// per-router single-goroutine delivery the tracer's lock-free
		// buffers rely on.
		b.Trace = t.Hook
	}
	return b
}

// aimSources aims every node's generation process at the network's
// configuration: every node stream returns to its pre-draw position
// (nodeRnd0), the packet sequence restarts, and rate, membership and the
// next arrival are computed from the workload and the configured load. That
// reproduces the node-source set-up of a cold build bit for bit — for
// construction and for construction-snapshot restores at any load.
func (net *Network) aimSources() {
	wl := net.wl
	packetSize := float64(net.rcfg.PacketSize)
	for n := range net.nodes {
		ns := &net.nodes[n]
		ns.rnd = net.nodeRnd0[n]
		ns.seq = 0
		ns.q = net.genProb
		member := true
		if wl != nil {
			// A workload's unallocated nodes are silent, and a job may
			// run at a load of its own.
			if l := wl.NodeLoad(n); l > 0 {
				ns.q = l / packetSize
			}
			member = wl.Member(n)
		}
		ns.active = member && ns.q > 0
		ns.logOneMinusQ, ns.nextGen = 0, 0
		if ns.active {
			if ns.q < 1 {
				ns.logOneMinusQ = math.Log(1 - ns.q)
			}
			ns.nextGen = ns.nextArrival(-1, ns.q)
		}
	}
	for r := range net.genWake {
		net.refreshGenWake(r)
	}
}

// nextArrival samples the next Bernoulli(q) success strictly after cycle t.
func (ns *nodeState) nextArrival(t int64, q float64) int64 {
	if q >= 1 {
		return t + 1
	}
	u := 1 - ns.rnd.Float64() // in (0,1]
	gap := int64(math.Log(u)/ns.logOneMinusQ) + 1
	if gap < 1 {
		gap = 1
	}
	return t + gap
}

// refreshGenWake recomputes the cached earliest arrival of router r.
func (net *Network) refreshGenWake(r int) {
	p := net.topo.Params()
	base := r * p.P
	wake := int64(-1)
	for i := 0; i < p.P; i++ {
		ns := &net.nodes[base+i]
		if !ns.active {
			continue
		}
		if wake < 0 || ns.nextGen < wake {
			wake = ns.nextGen
		}
	}
	net.genWake[r] = wake
}

// Generate creates the packets due at cycle now for the nodes of router r.
// Engines call it for every router they step, just before the step.
func (net *Network) Generate(r int, now int64) {
	if w := net.genWake[r]; w < 0 || w > now {
		return // no node of r has an arrival due
	}
	p := net.topo.Params()
	fab := net.fab
	backlogLimit := net.cfg.Router.InjectionQueuePackets
	base := r * p.P
	for i := 0; i < p.P; i++ {
		ns := &net.nodes[base+i]
		if !ns.active {
			continue
		}
		for ns.nextGen <= now {
			ns.nextGen = ns.nextArrival(ns.nextGen, ns.q)
			src := base + i
			var dst int
			if net.wl != nil {
				// A workload declines draws in off phases; those are not
				// generation attempts, so it draws before the backlog
				// check. A named pattern keeps the seed's order: backlog
				// check first, no draw for a backlogged node.
				if dst = net.wl.DestAt(src, now, &ns.rnd); dst < 0 {
					continue
				}
			}
			if fab.InjectionBacklog(r, i) >= backlogLimit {
				fab.NoteBacklogged(r, now, src)
				continue
			}
			if net.wl == nil {
				dst = net.pattern.Dest(src, &ns.rnd)
			}
			pkt := net.free.Get()
			pkt.Reset()
			ns.seq++
			pkt.ID = uint64(src)<<32 | ns.seq
			pkt.Src = int32(src)
			if net.nodeJob != nil {
				pkt.Job = net.nodeJob[src]
			}
			pkt.Dst = int32(dst)
			pkt.Size = int16(net.rcfg.PacketSize)
			pkt.GenTime = now
			min := net.topo.MinimalPathLength(src, dst)
			pkt.MinLocal, pkt.MinGlobal = uint8(min.Local), uint8(min.Global)
			pkt.MinLinkLat = net.minPathLinkLat(src, dst, min)
			net.mech.OnGenerate(&net.env, pkt, &ns.rnd)
			fab.EnqueueInjection(r, now, pkt)
		}
	}
	net.refreshGenWake(r)
}

// numJobs is the number of jobs the network attributes packets to: the
// workload's, 0 without one (and for a streaming workload, which reports
// none).
func (net *Network) numJobs() int {
	if net.wl == nil {
		return 0
	}
	return net.wl.NumJobs()
}

// patternName labels the network's traffic: the named pattern's label or
// the workload's.
func (net *Network) patternName() string {
	if net.wl != nil {
		return net.wl.Name()
	}
	return net.pattern.Name()
}

// minPathLinkLat prices the links of the unique minimal path from src to
// dst under the run's latency model: [local to the exit router] + global +
// [local from the entry router], with the uniform model short-circuited to
// two multiplies (the hot, seed-identical case).
func (net *Network) minPathLinkLat(src, dst int, min topology.PathLength) int64 {
	if u := net.uniform; u != nil {
		return int64(min.Local)*int64(u.Local) + int64(min.Global)*int64(u.Global)
	}
	t := net.topo
	return topology.MinimalPathLinkLatency(t, net.latency, t.NodeRouter(src), t.NodeRouter(dst))
}

// LiveJobDelivered sums job j's delivered packets since the start of the
// run — warm-up included, independent of the measurement window — over the
// given routers (nil: all routers). Intra-job traffic is delivered only at
// routers hosting the job, so a Controller polling a packet-target job may
// pass just its hosting routers. Safe to call between cycles and after the
// run.
func (net *Network) LiveJobDelivered(job int, routers []int) int64 {
	var sum int64
	if routers == nil {
		for r := range net.genWake {
			sum += net.fab.LiveJobDelivered(r, job)
		}
		return sum
	}
	for _, r := range routers {
		sum += net.fab.LiveJobDelivered(r, job)
	}
	return sum
}

// EngineSteps returns the number of router-steps the last engine run
// executed — the denominator of the scheduler's skip ratio
// (TestEngineStepsPinned pins it per scenario).
func (net *Network) EngineSteps() int64 { return net.engineSteps }

// EngineWindows returns the number of time windows the last engine run
// executed (see Drive). Cycles run over windows is the mean window length:
// the engine's lookahead at best — a run shorter than that is one window —
// less when controller events or probe samples cut it, 1 when the probe
// cadence makes the driver look at the network after every cycle.
func (net *Network) EngineWindows() int64 { return net.engineWindows }

// Fabric returns the router state behind the network.
func (net *Network) Fabric() Fabric { return net.fab }

// InFlight counts packets currently inside the network (buffers and links).
// O(network); intended for conservation checks and the deadlock watchdog.
func (net *Network) InFlight() int { return net.fab.InFlight() }
