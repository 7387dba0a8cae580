// Package refmodel is the oracle: the seed's dense router model — one
// Router struct per router stepped every cycle, Link objects between them
// (time-indexed RingLinks or compact EventLinks), and the dense sequential
// and barrier-parallel cycle loops — kept as the executable specification
// the production core (internal/router.Core and the scheduler engines of
// internal/sim) is proven bit-identical against.
//
// The package is FROZEN. It is imported only by _test.go files and
// cmd/dfbench (CI's layout step enforces that no shipped tool depends on
// it), and it changes only when the simulated behaviour itself is meant to
// change: never optimise it, never import it from production code, never
// "improve" it in step with the core — an oracle that drifts with the
// implementation proves nothing.
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
	"dragonfly/internal/traffic"
)

// LinkKind selects the oracle's link implementation. The two are
// bit-identical (link_test.go and internal/sim's tests enforce it); Rings
// is the seed configuration and the default of every comparison.
type LinkKind int

const (
	// Rings wires the seed's time-indexed ring links.
	Rings LinkKind = iota
	// Events wires the event-queue links.
	Events
)

// Fabric is the oracle's router state behind sim's seam: the dense routers
// and the links between them.
type Fabric struct {
	Routers []*Router
	Links   []Link
	maxLat  int64
}

// NewNetwork builds a network whose routers and links are the oracle's.
// Drive it with Run or RunWithController.
func NewNetwork(cfg *sim.Config, pat traffic.Pattern, links LinkKind) (*sim.Network, error) {
	return sim.NewNetworkOn(cfg, pat, func(w router.Wiring) (sim.Fabric, error) {
		return newFabric(w, links)
	})
}

// newFabric builds and wires the routers: one link per direction, created
// from the sender side, both ends recording the far-side address.
func newFabric(w router.Wiring, kind LinkKind) (*Fabric, error) {
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
		var link Link
		if kind == Rings {
			link = NewLink(lat, rcfg.SerialCycles())
		} else {
			link = NewEventLink(lat, rcfg.SerialCycles(), rcfg.CrossbarCycles())
		}
		f.Routers[src].ConnectOutTo(port, link, dst, inPort)
		f.Routers[dst].ConnectInFrom(inPort, link, src, port)
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

func (f *Fabric) InjectionBacklog(r, nodeIdx int) int { return f.Routers[r].InjectionBacklog(nodeIdx) }
func (f *Fabric) NoteBacklogged(r, src int)           { f.Routers[r].NoteBacklogged(src) }
func (f *Fabric) EnqueueInjection(r int, now int64, p *packet.Packet) {
	f.Routers[r].EnqueueInjection(now, p)
}
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

func (f *Fabric) SetMeasuring(on bool) {
	for _, r := range f.Routers {
		r.SetMeasuring(on)
	}
}

func (f *Fabric) SetBatch(i int) {
	for _, r := range f.Routers {
		r.SetBatch(i)
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
