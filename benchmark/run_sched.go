package main

import (
	"encoding/json"

	"dragonfly/internal/scheduler"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

func schedConfig(c *runCtx) (sim.Config, scheduler.GenSpec) {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(c.sz.H)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.Seed = c.seed
	cfg.Workers = 1
	// The run ends at the last departure; the cycle counts only cap it.
	cfg.MeasureCycles = 1 << 40
	return cfg, scheduler.GenSpec{
		Jobs:         c.sz.SchedJobs,
		InterArrival: 3,
		NodesMedian:  8, NodesSigma: 0.5,
		MaxNodes:  topology.New(cfg.Topology).NumNodes(),
		DurMedian: 15, DurSigma: 0.5,
	}
}

// schedSummary renders the run's portable summary: no wall clock, no
// memory telemetry, so two runs of one trace share its bytes.
func schedSummary(res *scheduler.StreamResult, seed uint64) ([]byte, error) {
	sum, err := res.Summary("consecutive", seed)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sum)
}

// runSched is rounds of a generated trace streamed through the EASY
// scheduler on one simulation: Generate is set-up, RunGenerated through to
// the summary is the timed section. Every round runs the same trace.
func runSched(c *runCtx) error {
	rec := c.rec
	cfg, spec := schedConfig(c)

	var res *scheduler.StreamResult
	rounds, err := c.repeat(c.sz.SchedRounds, func(int) (round, error) {
		t0 := nanotime()
		gt, err := scheduler.Generate(spec, c.seed)
		if err != nil {
			return round{}, err
		}
		out := round{SetupS: secondsSince(t0), Sec: beginSection()}
		res, err = scheduler.RunGenerated(cfg, gt, scheduler.DisciplineEASY)
		if !rec.check(err, "scheduler.RunGenerated") {
			return out, err
		}
		canonical, err := schedSummary(res, c.seed)
		if err != nil {
			return out, err
		}
		out.Sec.end()
		out.Digest = digestOf(canonical)
		rec.op(res.Completed == spec.Jobs, "%d of %d jobs completed", res.Completed, spec.Jobs)
		return out, nil
	})
	if err != nil {
		return err
	}
	wall := rec.value("wall_s")

	rec.setN("scheduler.generate_ms", rec.value("setup_s")*1e3, len(rounds))
	rec.setN("scheduler.jobs_per_s", float64(spec.Jobs)/wall, len(rounds))
	rec.setN("scheduler.us_per_job", wall*1e6/float64(spec.Jobs), len(rounds))
	rec.set("scheduler.sim_cycles", float64(res.RanCycles))
	rec.set("scheduler.util", res.Utilization)
	rec.set("scheduler.wait_mean", res.WaitMean)
	rec.set("scheduler.peak_queue", float64(res.PeakQueue))

	if !c.traced {
		return nil
	}
	// The traced twin has three calls into the layer, so three spans.
	tr := c.tr
	root := tr.begin(c.rec.workload, "", -1)
	defer tr.end(root)
	settle()
	var gt *scheduler.GenTrace
	tr.time("scheduler.Generate", "", root, func() { gt, err = scheduler.Generate(spec, c.seed) })
	if err != nil {
		return err
	}
	settle()
	traced := tr.time("scheduler.RunGenerated", "", root, func() { res, err = scheduler.RunGenerated(cfg, gt, scheduler.DisciplineEASY) })
	if !rec.check(err, "scheduler.RunGenerated (traced)") {
		return err
	}
	var canonical []byte
	traced += tr.time("StreamResult.Summary", "", root, func() { canonical, err = schedSummary(res, c.seed) })
	if err != nil {
		return err
	}
	rec.op(digestOf(canonical) == c.digest, "traced digest differs from untraced")
	rec.set("bench.trace_overhead", traced/c.typicalWall()-1)
	return nil
}
