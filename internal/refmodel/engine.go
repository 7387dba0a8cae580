package refmodel

import (
	"runtime"

	"dragonfly/internal/sim"
)

// Run drives an oracle network through cfg's warm-up and measurement
// phases with the dense seed engines: every router is generated for and
// stepped every cycle, every PiggyBack group refreshed every cycle. It is
// the baseline the scheduler engines are proven bit-identical against and
// the "before" side of the cmd/dfbench regression harness.
func Run(net *sim.Network, cfg *sim.Config) error { return RunWithController(net, cfg, nil) }

// RunWithController is Run with a reconfiguration Controller invoked
// between cycles (nil: none).
func RunWithController(net *sim.Network, cfg *sim.Config, ctrl sim.Controller) error {
	routers := Of(net).Routers
	workers := min(max(cfg.Workers, 1), len(routers), runtime.NumCPU())
	var e sim.Engine = &denseSeq{net: net, routers: routers}
	if workers > 1 {
		e = newDensePar(net, routers, workers)
	}
	return sim.Drive(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, ctrl, e)
}

// denseSeq is the dense seed engine.
type denseSeq struct {
	net     *sim.Network
	routers []*Router
	cycles  int64
}

func (e *denseSeq) Wake(int)         {}
func (e *denseSeq) Close()           {}
func (e *denseSeq) Steps() int64     { return int64(len(e.routers)) * e.cycles }
func (e *denseSeq) Lookahead() int64 { return 1 }

func (e *denseSeq) Advance(from, to int64) {
	for now := from; now < to; now++ {
		e.cycle(now)
	}
}

func (e *denseSeq) cycle(now int64) {
	Of(e.net).phase(now)
	for g := 0; g < e.net.PBGroups(); g++ {
		e.net.RefreshPB(g)
	}
	for r, rt := range e.routers {
		e.net.Generate(r, now)
		rt.Step(now)
	}
	e.cycles++
}

// densePar is the dense seed parallel engine: full static shards, a
// barrier per phase.
type densePar struct {
	denseSeq
	starts []chan int64
	done   chan struct{}
}

func newDensePar(net *sim.Network, routers []*Router, workers int) *densePar {
	e := &densePar{
		denseSeq: denseSeq{net: net, routers: routers},
		starts:   make([]chan int64, workers),
		done:     make(chan struct{}, workers),
	}
	n, groups := len(routers), net.PBGroups()
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		gLo, gHi := w*groups/workers, (w+1)*groups/workers
		e.starts[w] = make(chan int64)
		go func(start chan int64) {
			for now := range start {
				if groups > 0 {
					for g := gLo; g < gHi; g++ {
						net.RefreshPB(g)
					}
					e.done <- struct{}{}
					if _, ok := <-start; !ok {
						return
					}
				}
				for r := lo; r < hi; r++ {
					net.Generate(r, now)
					routers[r].Step(now)
				}
				e.done <- struct{}{}
			}
		}(e.starts[w])
	}
	return e
}

func (e *densePar) Close() {
	for _, ch := range e.starts {
		close(ch)
	}
}

func (e *densePar) Advance(from, to int64) {
	for now := from; now < to; now++ {
		e.cycle(now)
	}
}

func (e *densePar) cycle(now int64) {
	Of(e.net).phase(now)
	phases := 1
	if e.net.PBGroups() > 0 {
		phases = 2
	}
	for ph := 0; ph < phases; ph++ {
		for _, ch := range e.starts {
			ch <- now
		}
		for range e.starts {
			<-e.done
		}
	}
	e.cycles++
}
