package main

import (
	"bytes"
	"fmt"
	"io"

	"dragonfly/internal/report"
	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// Reference values of EXPERIMENTS.md's full-size In-Trns-MM row (h=6,
// ADVc @ 0.4, transit priority, 25,000 cycles). The benchmark window is
// shorter, so the error metrics carry that difference too.
const (
	refCoV        = 0.228
	refBneckShare = 0.24
)

func runSat(c *runCtx) error {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(c.sz.H)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.4
	cfg.Router.Arbitration = router.TransitOverInjection
	cfg.WarmupCycles, cfg.MeasureCycles = c.sz.SatWarm, c.sz.SatMeasure
	return runSingle(c, cfg)
}

func runLight(c *runCtx) error {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(c.sz.H)
	cfg.Mechanism = "Src-CRG"
	cfg.Pattern = "UN"
	cfg.Load = 0.05
	cfg.WarmupCycles, cfg.MeasureCycles = c.sz.LightWarm, c.sz.LightMeasure
	return runSingle(c, cfg)
}

// canonicalResult renders a result without its host-time and telemetry
// fields: the bytes two runs of the same simulation must share.
func canonicalResult(res *sim.Result) []byte {
	r := *res
	r.Wall = 0
	r.Telemetry = nil
	var buf bytes.Buffer
	report.WriteResultJSON(&buf, &r) //nolint:errcheck // bytes.Buffer cannot fail
	return buf.Bytes()
}

// bneckShare is the paper's effect in one number: the injections of group
// 0's bottleneck router (its last) over the mean of its group peers.
func bneckShare(res *sim.Result) float64 {
	inj := res.GroupInjections(0)
	last := len(inj) - 1
	var peers float64
	for _, v := range inj[:last] {
		peers += float64(v)
	}
	if peers == 0 {
		return 0
	}
	return float64(inj[last]) / (peers / float64(last))
}

// runSingle is rounds of one simulation each, the body of sim.Run split at
// its only seam: set-up is NewNetwork, the timed section is RunNetwork
// through to the rendered result JSON. Every round runs the same inputs.
func runSingle(c *runCtx, cfg sim.Config) error {
	cfg.Seed = c.seed
	cfg.Workers = 1
	rec := c.rec

	var res *sim.Result
	var steps, routers int64
	rounds, err := c.repeat(c.sz.RunRounds, func(int) (round, error) {
		t0 := nanotime()
		net, err := sim.NewNetwork(&cfg, nil)
		if err != nil {
			return round{}, err
		}
		out := round{SetupS: secondsSince(t0), Sec: beginSection()}
		err = sim.RunNetwork(net, &cfg)
		if !rec.check(err, "sim.RunNetwork") {
			return out, err
		}
		res = sim.NewResultFrom(net, &cfg, 0)
		if err := report.WriteResultJSON(io.Discard, res); err != nil {
			return out, err
		}
		out.Sec.end()
		out.Digest = digestOf(canonicalResult(res))
		steps, routers = net.EngineSteps(), int64(len(net.Routers))
		return out, nil
	})
	if err != nil {
		return err
	}
	wall := rec.value("wall_s")
	cycles := cfg.WarmupCycles + cfg.MeasureCycles

	rec.set("router.steps", float64(steps))
	rec.set("router.step_share", float64(steps)/float64(routers*cycles))
	rec.setN("router.ns_per_step", wall*1e9/float64(steps), len(rounds))
	b := res.Breakdown()
	rec.set("routing.misroute_share", b.Misroute/(b.Base+b.Misroute+b.WaitLocal+b.WaitGlobal+b.WaitInj))
	rec.set("stats.accepted_load", res.Throughput())
	rec.set("stats.avg_latency_cycles", res.AvgLatency())
	rec.set("stats.cov", res.Fairness().CoV)
	share := bneckShare(res)
	rec.set("stats.bneck_share", share)

	rec.op(res.Delivered() > 0, "no packet delivered in the window")
	if c.rec.workload == wlSat {
		rec.set("stats.ref_err_cov", res.Fairness().CoV/refCoV-1)
		rec.set("stats.ref_err_bneck", share/refBneckShare-1)
		// The paper's effect: transit priority starves the bottleneck
		// router. A faster engine that loses it is wrong, not fast.
		rec.op(share < 0.5, "stats.bneck_share = %.3f, want < 0.5 (the bottleneck router is not starved)", share)
	} else {
		// Below saturation the network accepts what is offered.
		got := res.Throughput()
		rec.op(got > 0.9*cfg.Load && got < 1.1*cfg.Load, "accepted load %.4f is not the offered %.4f", got, cfg.Load)
	}

	if c.traced {
		return tracedSingle(c, cfg, c.typicalWall())
	}
	return nil
}

// countWriter counts the bytes of the probe stream.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// tracedSingle re-executes the run through the decomposed public calls,
// one span each. Splitting the run at a warm snapshot is exact (see
// TestWarmSnapshotSameLoadExact), so its digest must equal the untraced one.
func tracedSingle(c *runCtx, cfg sim.Config, untracedWall float64) error {
	rec, tr := c.rec, c.tr
	root := tr.begin(c.rec.workload, "", -1)
	defer tr.end(root)
	ms := func(s float64) float64 { return s * 1e3 }

	settle()
	rec.set("topology.new_ms", ms(tr.time("topology.New", "", root, func() { topology.New(cfg.Topology) })))

	var net *sim.Network
	var err error
	settle()
	buildMB := allocMB(func() {
		rec.set("sim.build_ms", ms(tr.time("sim.NewNetwork", "", root, func() { net, err = sim.NewNetwork(&cfg, nil) })))
	})
	if err != nil {
		return err
	}
	rec.set("sim.build_alloc_mb", buildMB)

	settle()
	warm := tr.time("sim.WarmupNetwork", "", root, func() { err = sim.WarmupNetwork(net, &cfg, cfg.WarmupCycles) })
	if !rec.check(err, "sim.WarmupNetwork") {
		return err
	}
	warmSteps := net.EngineSteps()

	var snap *sim.Snapshot
	var snapS float64
	snapMB := allocMB(func() {
		snapS = tr.time("Network.Snapshot", "", root, func() { snap, err = net.Snapshot() })
	})
	if err != nil {
		return err
	}
	rec.set("sim.snapshot_ms", ms(snapS))
	rec.set("sim.snapshot_mb", snapMB)
	net = nil

	var stream countWriter
	mcfg := cfg
	mcfg.WarmupCycles = 0
	mcfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: c.sz.ProbeEvery, Out: &stream})
	restoreFirst := tr.time("sim.RestoreNetwork", "", root, func() { net, err = sim.RestoreNetwork(snap, &mcfg) })
	if err != nil {
		return err
	}
	rec.set("sim.restore_first_ms", ms(restoreFirst))

	measure := tr.time("sim.RunNetwork", "", root, func() { err = sim.RunNetwork(net, &mcfg) })
	if !rec.check(err, "sim.RunNetwork (restored)") {
		return err
	}
	var res *sim.Result
	resultS := tr.time("sim.NewResultFrom", "", root, func() { res = sim.NewResultFrom(net, &mcfg, 0) })
	renderS := tr.time("report.WriteResultJSON", "", root, func() { err = report.WriteResultJSON(io.Discard, res) })
	if err != nil {
		return err
	}
	tracedWall := warm + snapS + restoreFirst + measure + resultS + renderS

	rec.set("sim.warmup_s", warm)
	rec.set("sim.measure_s", measure)
	rec.set("sim.cycles_per_s", float64(cfg.WarmupCycles+cfg.MeasureCycles)/(warm+measure))
	rec.set("sim.result_ms", ms(resultS))
	rec.set("bench.trace_overhead", tracedWall/untracedWall-1)
	phits := res.Throughput() * float64(res.Nodes) * float64(res.MeasuredCycles)
	rec.set("router.ns_per_phit", measure*1e9/phits)
	rec.op(digestOf(canonicalResult(res)) == c.digest, "traced digest differs from untraced")
	// A restored run starts with every router awake, which only adds
	// provable no-op steps: never fewer than the single run's.
	steps := float64(warmSteps + net.EngineSteps())
	rec.op(steps >= rec.value("router.steps"), "traced run took %v router steps, fewer than the untraced run", steps)

	sum := res.Telemetry
	if sum == nil {
		return fmt.Errorf("probed run carries no telemetry summary")
	}
	rec.set("router.peak_inflight", float64(sum.PeakInFlight))
	rec.set("router.peak_queued_phits", float64(sum.PeakQueuedPhits))
	rec.set("router.peak_credit_stalls", float64(sum.PeakCreditStalls))
	rec.set("routing.pb_flips", float64(sum.PBFlips))
	rec.set("telemetry.samples", float64(sum.Samples))
	rec.set("telemetry.jsonl_mb", float64(stream.n)/(1<<20))
	rec.op(sum.WriteError == "", "probe stream: %s", sum.WriteError)

	// The sweep steady state: restore over the network the previous run
	// dirtied. A few cycles are enough to dirty every slab.
	dirty := cfg
	dirty.WarmupCycles, dirty.MeasureCycles = 0, 20
	restores := make([]float64, c.sz.RestoreReps)
	for i := range restores {
		if err := sim.RunNetwork(net, &dirty); err != nil {
			return err
		}
		restores[i] = tr.time("sim.RestoreNetworkInto", "", root, func() { net, err = sim.RestoreNetworkInto(snap, &dirty, net) })
		if err != nil {
			return err
		}
	}
	rec.setN("sim.restore_ms", ms(median(restores)), len(restores))
	net, snap = nil, nil

	// The same run on two engine workers, and on one with probes, against
	// the untraced rounds' median: the prove-or-prune number of the barrier
	// engine and the price of telemetry. Results must not differ.
	variant := func(name string, workers int, probes *telemetry.Probes) (float64, error) {
		vc := cfg
		vc.Workers, vc.Probes = workers, probes
		settle()
		n, err := sim.NewNetwork(&vc, nil)
		if err != nil {
			return 0, err
		}
		s := tr.time(name, "", root, func() { err = sim.RunNetwork(n, &vc) })
		if !rec.check(err, name) {
			return 0, err
		}
		rec.op(digestOf(canonicalResult(sim.NewResultFrom(n, &vc, 0))) == c.digest, "%s: digest differs from the plain run's", name)
		return s, nil
	}
	w2, err := variant("sim.RunNetwork workers=2", procs, nil)
	if err != nil {
		return err
	}
	wp, err := variant("sim.RunNetwork probes", 1, telemetry.NewProbes(telemetry.ProbeConfig{Every: c.sz.ProbeEvery, Out: io.Discard}))
	if err != nil {
		return err
	}
	rec.set("sim.par2_ratio", w2/untracedWall)
	rec.set("sim.probe_overhead", wp/untracedWall-1)
	return nil
}
