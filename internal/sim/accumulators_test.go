package sim

import (
	"fmt"
	"slices"

	"dragonfly/internal/stats"
)

// accumulators is every router's statistics accumulator and its per-job
// accumulators, copied out of a network's fabric. A Result keeps only the
// network totals and per-router counts; the engine-identity tests compare
// these instead, router by router.
type accumulators struct {
	routers []stats.Router
	jobs    [][]stats.Job // nil without job attribution
}

// accumulatorsOf copies net's accumulators as they stand.
func accumulatorsOf(net *Network) accumulators {
	n := net.topo.NumRouters()
	a := accumulators{routers: make([]stats.Router, n)}
	if net.numJobs() > 0 {
		a.jobs = make([][]stats.Job, n)
	}
	for r := range n {
		a.routers[r] = *net.fab.Stats(r)
		if a.jobs != nil {
			a.jobs[r] = slices.Clone(net.fab.JobStats(r))
		}
	}
	return a
}

// diff describes the first router whose accumulators differ from want's,
// or returns "" when every one is equal.
func (a accumulators) diff(want accumulators) string {
	if len(a.routers) != len(want.routers) || len(a.jobs) != len(want.jobs) {
		return fmt.Sprintf("%d routers (%d with jobs), want %d (%d)", len(a.routers), len(a.jobs), len(want.routers), len(want.jobs))
	}
	for r := range want.routers {
		if a.routers[r] != want.routers[r] {
			return fmt.Sprintf("router %d stats diverge:\n got %+v\nwant %+v", r, a.routers[r], want.routers[r])
		}
	}
	for r := range want.jobs {
		if !slices.Equal(a.jobs[r], want.jobs[r]) {
			return fmt.Sprintf("router %d job stats diverge:\n got %+v\nwant %+v", r, a.jobs[r], want.jobs[r])
		}
	}
	return ""
}

// outcome is one finished run as the engine-identity tests compare it: its
// Result, and the accumulators it was condensed from.
type outcome struct {
	*Result
	acc accumulators
}

// outcomeOf reads the outcome of the run net just finished.
func outcomeOf(net *Network, cfg *Config) outcome {
	return outcome{newResult(net, cfg, 0), accumulatorsOf(net)}
}
