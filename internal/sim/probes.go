package sim

import "dragonfly/internal/telemetry"

// The telemetry cadence hook. Like the reconfiguration Controller
// (reconfig.go), probes run at the top of a time window, on the
// coordinator, with every engine worker quiescent and every group at the
// same cycle (the driver cuts its windows at the cadence) — the one point
// where the network state is both stable and proven bit-identical across
// engines and worker counts. A probe is a pure read of that state
// (per-router stats accumulators, queue occupancies, link serializer
// deadlines, PB bits), so enabling it cannot change results, and the
// sampled series themselves are engine- and worker-invariant. A nil
// *probeRun is inert: a run without probes pays one nil check per window
// and allocates nothing.

// probeSource adapts the Network to telemetry.Source, reading router state
// through the Fabric seam.
type probeSource struct {
	net    *Network
	warmup int64
}

// Shape implements telemetry.Source.
func (ps *probeSource) Shape() telemetry.Shape {
	net := ps.net
	p := net.topo.Params()
	nr := net.topo.NumRouters()
	return telemetry.Shape{
		Groups:        net.topo.NumGroups(),
		Routers:       nr,
		Nodes:         net.topo.NumNodes(),
		Jobs:          net.numJobs(),
		NodesPerGroup: p.A * p.P,
		PacketSize:    net.rcfg.PacketSize,
		LocalLinks:    nr * (p.A - 1),
		GlobalLinks:   nr * p.H,
		MeasureFrom:   ps.warmup,
	}
}

// Collect implements telemetry.Source: one instantaneous observation at
// the start of cycle now.
func (ps *probeSource) Collect(now int64, s *telemetry.Snapshot) {
	net := ps.net
	s.InFlight = net.InFlight()
	s.LocalBusy, s.GlobalBusy, s.CreditStalls = 0, 0, 0
	for g := range s.Groups {
		s.Groups[g] = telemetry.GroupCounters{}
	}
	fab := net.fab
	for r := range net.genWake {
		lp := fab.ProbeLinks(r, now)
		s.LocalBusy += lp.LocalBusy
		s.GlobalBusy += lp.GlobalBusy
		s.CreditStalls += lp.CreditStalled
		inQ, outQ := fab.ProbeQueues(r)
		gc := &s.Groups[net.topo.RouterGroup(r)]
		gc.InQPhits += inQ
		gc.OutQPhits += outQ
		st := fab.Stats(r)
		gc.Injected += st.Injected
		gc.DeliveredPhits += st.DeliveredPhits
	}
	for j := range s.Jobs {
		s.Jobs[j] = telemetry.JobCounters{Delivered: net.LiveJobDelivered(j, nil)}
	}
	if net.pb == nil {
		s.PB, s.PBSet = nil, 0
		return
	}
	// Pack the PiggyBack bits into one flat word vector for cheap flip
	// counting in the recorder.
	words := (len(net.pb.bits) + 63) / 64
	if len(s.PB) != words {
		s.PB = make([]uint64, words)
	}
	for i := range s.PB {
		s.PB[i] = 0
	}
	s.PBSet = 0
	for idx, b := range net.pb.bits {
		if b {
			s.PB[idx>>6] |= 1 << (uint(idx) & 63)
			s.PBSet++
		}
	}
}

// probeRun drives a run's telemetry probes. A nil *probeRun is inert, so
// engines call step/finish unconditionally (the reconfigRun pattern).
type probeRun struct {
	probes *telemetry.Probes
	src    probeSource
	every  int64
	// settler, when the engine applies state-only events lazily, brings every
	// router's state to the end of the previous cycle before a sample.
	settler settler
}

// newProbeRun wires cfg.Probes to the network for one engine run, or
// returns nil when probing is off.
func newProbeRun(net *Network, warmup int64) *probeRun {
	p := net.cfg.Probes
	if p == nil {
		return nil
	}
	return &probeRun{
		probes: p,
		src:    probeSource{net: net, warmup: warmup},
		every:  p.Every(),
	}
}

// step samples the network when cycle now falls on the cadence. Must run
// at the top of a window, with workers quiescent; the driver ends every
// window no later than the next multiple of the cadence.
func (p *probeRun) step(now int64) {
	if p == nil || now%p.every != 0 {
		return
	}
	if p.settler != nil {
		p.settler.Settle(now - 1)
	}
	p.probes.Observe(now, &p.src)
}

// finish publishes the run summary onto the network, where newResult
// picks it up.
func (p *probeRun) finish() {
	if p == nil {
		return
	}
	p.net().telemetry = p.probes.Finish()
}

func (p *probeRun) net() *Network { return p.src.net }
