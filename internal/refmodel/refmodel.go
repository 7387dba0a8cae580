// Package refmodel is the oracle: the seed's dense router model — one
// Router struct per router stepped every cycle, time-indexed RingLinks
// between them, and the dense sequential and barrier-parallel cycle loops —
// kept as the executable specification the production core
// (internal/router.Core and the group-major engine of internal/sim) is
// proven bit-identical against.
//
// The package is FROZEN, and the only edit it accepts is deletion: code no
// dense run executes may be removed, but a statement a dense run executes
// is never changed — never optimise it, never "improve" it in step with
// the core; an oracle that drifts with the implementation proves nothing.
// pinned_test.go holds the oracle to digests recorded on the seed model,
// TestLayout's oracle-frozen row caps the package's line count (it may only
// shrink) and its refmodel-imports row lets only _test.go files and
// cmd/dfbench import it, so no shipped tool depends on it. The one exception
// to "never changed" is a PR that means to change the simulated behaviour.
//
// It shares everything around the routers with production through
// sim.NewNetworkOn and sim.Drive: pattern, traffic sources, PiggyBack
// refresh, controller, probes, watchdog and result collection are the same
// code on both sides of every comparison; only the routers, the links and
// the stepping differ.
package refmodel

import (
	"fmt"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/workload"
)

// Fabric is the oracle's router state behind sim's seam: the dense routers
// and the links between them.
type Fabric struct {
	Routers       []*Router
	Links         []*RingLink
	maxLat        int64
	warmup, total int64 // cycles [warmup, total) are measured, see phase
}

// NewNetwork builds a network whose routers and links are the oracle's.
// Drive it with Run or RunWithController.
func NewNetwork(cfg *sim.Config, wl *workload.Workload) (*sim.Network, error) {
	return sim.NewNetworkOn(cfg, wl, func(w router.Wiring) (sim.Fabric, error) {
		return newFabric(w)
	})
}

// newFabric builds and wires the routers: one link per direction, created
// from the sender side.
func newFabric(w router.Wiring) (*Fabric, error) {
	topo, rcfg := w.Topo, w.Cfg
	f := &Fabric{Routers: make([]*Router, topo.NumRouters())}
	for r := range f.Routers {
		f.Routers[r] = New(r, topo, rcfg, w.Mech, w.Env, w.Rng.Split(), w.Recycle)
		if w.Trace != nil {
			f.Routers[r].SetTrace(w.Trace(r))
		}
		if w.NumJobs > 0 {
			f.Routers[r].SetJobAttribution(w.NodeJob, w.NumJobs)
		}
	}
	connect := func(src, port, dst, inPort, lat int) error {
		if lat <= 0 {
			return fmt.Errorf("refmodel: latency model %q assigns non-positive latency %d to link %d->%d",
				w.Latency.Name(), lat, src, dst)
		}
		f.maxLat = max(f.maxLat, int64(lat))
		link := NewLink(lat, rcfg.SerialCycles())
		f.Routers[src].ConnectOut(port, link)
		f.Routers[dst].ConnectIn(inPort, link)
		f.Links = append(f.Links, link)
		return nil
	}
	p := topo.Params()
	for r := 0; r < topo.NumRouters(); r++ {
		for l := 0; l < p.A-1; l++ {
			nb := topo.LocalNeighbor(r, l)
			inPort := topo.LocalPortTo(nb, topo.RouterLocalIndex(r))
			if err := connect(r, l, nb, inPort, w.Latency.LocalLatency(topo, r, nb)); err != nil {
				return nil, err
			}
		}
		for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
			nb, inPort := topo.GlobalNeighbor(r, gp)
			if err := connect(r, gp, nb, inPort, w.Latency.GlobalLatency(topo, r, nb)); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// Of returns the oracle fabric behind a network built by NewNetwork.
func Of(net *sim.Network) *Fabric { return net.Fabric().(*Fabric) }

// SetTrace installs (or clears, with nil) the router's trace hook.
func (r *Router) SetTrace(fn router.TraceFn) { r.trace = fn }

// The methods below implement sim.Fabric by delegation to the routers.

func (f *Fabric) InjectionBacklog(r, nodeIdx int) int    { return f.Routers[r].InjectionBacklog(nodeIdx) }
func (f *Fabric) NoteBacklogged(r int, _ int64, src int) { f.Routers[r].NoteBacklogged(src) }
func (f *Fabric) EnqueueInjection(r int, now int64, p *packet.Packet) {
	f.Routers[r].EnqueueInjection(now, p)
}
func (f *Fabric) SetPhases(warmup, total int64)        { f.warmup, f.total = warmup, total }
func (f *Fabric) OutputUsed(r, port int) int           { return f.Routers[r].LinkLoad(port) }
func (f *Fabric) MaxLinkLatency() int64                { return f.maxLat }
func (f *Fabric) Stats(r int) *stats.Router            { return f.Routers[r].Stats() }
func (f *Fabric) JobStats(r int) []stats.Job           { return f.Routers[r].JobStats() }
func (f *Fabric) LiveJobDelivered(r, job int) int64    { return f.Routers[r].LiveJobDelivered(job) }
func (f *Fabric) ProbeQueues(r int) (in, out int64)    { return f.Routers[r].ProbeQueues() }
func (f *Fabric) StateVector(r int, v []int64) []int64 { return f.Routers[r].StateVector(v) }
func (f *Fabric) ProbeLinks(r int, now int64) router.LinkProbe {
	return f.Routers[r].ProbeLinks(now)
}

// phase gives every router the flags of cycle now; the dense engines call it cycle by cycle.
func (f *Fabric) phase(now int64) {
	for _, r := range f.Routers {
		r.SetMeasuring(now >= f.warmup)
		r.SetBatch(stats.BatchIndex(now, f.warmup, f.total))
	}
}

// InFlight counts packets in router buffers and on links.
func (f *Fabric) InFlight() int {
	n := 0
	for _, r := range f.Routers {
		n += r.InFlight()
	}
	for _, l := range f.Links {
		n += l.InFlight()
	}
	return n
}
