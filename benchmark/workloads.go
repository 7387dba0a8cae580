package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
)

// workload is one closed-loop load: a single caller that waits for each
// result. Why records what it is in the benchmark for.
type workload struct {
	Name string
	Why  string
	run  func(c *runCtx) error
}

// workloads are run in this order. The Why lines are repeated in
// BENCHMARK.json and benchmark/README.md.
var workloads = []workload{
	{wlSat, "The paper's headline point (h=6, In-Trns-MM, ADVc @ 0.4, transit priority): past the knee no router sleeps, so router.Core.StepRouter does all the work.", runSat},
	{wlLight, "The same engine the other way (h=6, Src-CRG, UN @ 0.05): most routers sleep, so the wake calendar, event routing and PiggyBack refresh set the cost.", runLight},
	{wlSweep, "The 75-point h=6 screening pipeline: points are so short that template build, restore, result extraction and the per-record fsync are a material share.", runSweep},
	{wlServe, "48 small h=2 jobs, 240 cache hits and a superset grid over HTTP: spec fingerprinting, store leases, journal and checkpoint I/O are the work, not the simulator.", runServe},
	{wlSched, "A streamed job trace on an idle h=6 network: planStarts, Admit/Place/Release and sim.Reconfig dominate, the one layer no other workload touches.", runSched},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes how much work each workload does. A workload is repeated for
// a number of identical rounds and the end-to-end metrics are those of the
// best round (see repeat). fullSizes derives the sizes from -seconds so
// that the rounds of a workload together last about that long on the
// reference container (2 cores). The tests use a miniature.
type sizes struct {
	H int // topology of the run_, sweep_ and sched_ workloads

	RunRounds               int
	SatWarm, SatMeasure     int64
	LightWarm, LightMeasure int64
	ProbeEvery              int64 // probe cadence of the traced run_ twins
	RestoreReps             int   // recycled restores timed by the traced run_ twins

	SweepRounds             int
	SweepWarm, SweepMeasure int64
	SweepLoads              []float64

	// Each serve round starts a fresh daemon and store and submits one job
	// per mechanism × pattern.
	ServeRounds             int
	ServeH                  int
	ServeWarm, ServeMeasure int64
	ServeMechanisms         []string
	ServePatterns           []string
	ServeLoads              int // loads per job, from 0.05 in steps of 0.05
	ServeSeeds              int // seeds per job

	SchedRounds int
	SchedJobs   int
}

func fullSizes(seconds int) sizes {
	s := int64(seconds)
	return sizes{
		H: 6,

		RunRounds: 6,
		SatWarm:   17 * s, SatMeasure: 58 * s,
		LightWarm: 83 * s, LightMeasure: 333 * s,
		ProbeEvery:  100,
		RestoreReps: 5,

		SweepRounds: 4,
		SweepWarm:   s, SweepMeasure: 2 * s,
		SweepLoads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},

		ServeRounds: 6,
		ServeH:      2,
		ServeWarm:   10 * s, ServeMeasure: 20 * s,
		ServeMechanisms: []string{"MIN", "Obl-RRG", "Src-RRG", "In-Trns-MM"},
		ServePatterns:   []string{"UN", "ADV+1"},
		ServeLoads:      10,
		ServeSeeds:      5,

		SchedRounds: 6,
		SchedJobs:   12500 * seconds,
	}
}

// runCtx is what a workload run is given. The seed is the only workload
// input; the program under test sees only what is generated from it.
type runCtx struct {
	seed    uint64
	sz      sizes
	traced  bool
	workdir string // private to this run, removed on exit
	rec     *recorder
	tr      *tracer // nil unless traced

	// digest is the hash of the run's canonical, host-time-free result
	// bytes, compared with golden.json.
	digest string
	// rounds keeps every round's raw measurements for the result file.
	rounds []roundValues
}

// roundValues is one round's measurements as the result file lists them.
type roundValues struct {
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the round's own high-water mark where the kernel lets
	// the mark be reset, the process's so far where it does not.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// round is one repetition of a workload: the set-up, then the timed
// section, then the digest of what the section produced.
type round struct {
	SetupS float64
	Sec    *section
	Digest string
}

// repeat runs body for n rounds, settling the heap before each, and
// records each end-to-end metric as its minimum over the rounds. Every
// round runs the same inputs and must produce the same digest (the program
// is deterministic), so rounds differ only by what the host adds: a noisy
// neighbour, an unlucky page placement. On the reference container that
// moves a whole 15 s measurement by ±8 %, and the median of six rounds by
// nearly as much, because the host's slow phases outlast a run; the
// fastest round moves least (measured spreads are in the README).
func (c *runCtx) repeat(n int, body func(r int) (round, error)) ([]round, error) {
	rounds := make([]round, n)
	var setup, wall, cpu, alloc, rss []float64
	ownPeaks := true
	for r := range rounds {
		settle()
		ownPeaks = resetPeakRSS() && ownPeaks
		var err error
		if rounds[r], err = body(r); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		v := roundValues{rounds[r].SetupS, rounds[r].Sec.WallS, rounds[r].Sec.CPUS, rounds[r].Sec.AllocMB, peakRSSMB()}
		c.rounds = append(c.rounds, v)
		setup, wall = append(setup, v.SetupS), append(wall, v.WallS)
		cpu, alloc, rss = append(cpu, v.CPUS), append(alloc, v.AllocMB), append(rss, v.PeakRSSMB)
		c.rec.op(rounds[r].Digest == rounds[0].Digest, "round %d digest differs from round 0's", r)
	}
	c.rec.setN("setup_s", slices.Min(setup), n)
	c.rec.setN("wall_s", slices.Min(wall), n)
	c.rec.setN("cpu_s", slices.Min(cpu), n)
	c.rec.setN("alloc_mb", slices.Min(alloc), n)
	if ownPeaks {
		// Memory noise is not additive like time noise: the first round
		// of a process peaks lowest and a late GC cycle now and then
		// leaves one round a fifth higher, so take the middle.
		c.rec.setN("peak_rss_mb", median(rss), n)
	} else {
		c.rec.set("peak_rss_mb", rss[n-1]) // the mark only ever rose: the last is the largest
	}
	c.digest = rounds[0].Digest
	return rounds, nil
}

// typicalWall is the median round's wall clock: the baseline for the
// ratios of the traced twins, which are single measurements and would read
// high against the best round.
func (c *runCtx) typicalWall() float64 {
	walls := make([]float64, len(c.rounds))
	for i, r := range c.rounds {
		walls[i] = r.WallS
	}
	return median(walls)
}

func secondsSince(t0 int64) float64 { return float64(nanotime()-t0) / 1e9 }

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
