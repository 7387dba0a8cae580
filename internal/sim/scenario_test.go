package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// The production engine — router.Core stepped group-major in time windows —
// must equal the dense oracle (internal/refmodel), which steps every router
// every cycle and knows nothing of windows, bit for bit. One table of rows,
// run by one runner, checks it: a row is a scenario, whose bytes a fuzzer
// can mutate, and the checks that are the row's own. The rows fall in ten
// families (oracleFamilies), one test each.

// scenario is one engine-vs-oracle comparison.
type scenario struct {
	h             int // the balanced topology's global links per router
	mech, pat     string
	load          float64
	seed          uint64
	warmup, total int64 // the run is cycles [0, total), measured from warmup on
	wiring        wiring
	arb           router.Arbitration
	// workers are the core's worker counts (numCPU: runtime.NumCPU()),
	// clamped to the groups but not to the host, so the parallel path runs
	// anywhere; oracleWorkers is the oracle's, whose engine is dense
	// sequential on 1 and barrier-parallel on more.
	workers       []int
	oracleWorkers int
	probeEvery    int64        // > 0: both sides sample probes at this cadence
	script        []churnEvent // membership changes, in the order Apply sees them
	finishAt      int64        // > 0: the controller finishes the run at this cycle
	captureLoad   float64      // > 0: the core restores from a construction snapshot captured at this load
	// stride > 0 compares after cycles warmup+1, warmup+1+stride, … up to
	// total, each prefix a fresh pair of runs; 0 compares after total.
	stride int64
}

// numCPU in a list of worker counts is runtime.NumCPU().
const numCPU = 0

// workerCounts resolves counts and drops repeats, keeping the order:
// {1, 2, numCPU} runs Workers 2 once on a two-core host.
func workerCounts(counts ...int) []int {
	var out []int
	for _, w := range counts {
		if w == numCPU {
			w = runtime.NumCPU()
		}
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// wiring is a latency model by name: "" is Table I's uniform 10/100,
// "uniform" and "groupskew" take local and global (groupskew its step too),
// and "one-short-link" is uniform but for one 1-cycle cable (oneShortLink).
type wiring struct {
	model               string
	local, global, step int
}

func (w wiring) latency() topology.LatencyModel {
	switch w.model {
	case "":
		return DefaultConfig().LatencyModel
	case "uniform":
		return topology.UniformLatency{Local: w.local, Global: w.global}
	case "groupskew":
		return topology.GroupSkewLatency{Local: w.local, GlobalBase: w.global, GlobalStep: w.step}
	case "one-short-link":
		return oneShortLink{topology.UniformLatency{Local: w.local, Global: w.global}}
	}
	return nil // refused by Validate
}

// codec writes a scenario's fields as varints — signed integers zigzagged,
// floats by their bits, strings and lists length first — or, with dec set,
// reads them back. Every field goes through one uvarint each way, so one
// walk (scenario.code) serves both directions.
type codec struct {
	b   []byte
	dec bool
	err error
}

func (c *codec) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	u, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err, c.b = errors.New("truncated"), nil
		return
	}
	*v, c.b = u, c.b[n:]
}

// length codes a string's or a list's length; decoded, it is at most the
// bytes left.
func (c *codec) length(n int) int {
	u := uint64(n)
	c.uvarint(&u)
	if c.dec && u > uint64(len(c.b)) {
		c.err, u = errors.New("a length past the end"), 0
	}
	return int(u)
}

func list[T any](c *codec, s *[]T, each func(*T)) {
	if n := c.length(len(*s)); c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

func (c *codec) field(f any) {
	switch f := f.(type) {
	case *uint64:
		c.uvarint(f)
	case *int64:
		u := uint64(*f<<1 ^ *f>>63)
		c.uvarint(&u)
		*f = int64(u>>1) ^ -int64(u&1)
	case *int:
		v := int64(*f)
		c.field(&v)
		*f = int(v)
	case *float64:
		u := math.Float64bits(*f)
		c.uvarint(&u)
		*f = math.Float64frombits(u)
	case *bool:
		u := uint64(0)
		if *f {
			u = 1
		}
		c.uvarint(&u)
		*f = u == 1
	case *string:
		n := c.length(len(*f))
		if c.dec {
			*f, c.b = string(c.b[:n]), c.b[n:]
		} else {
			c.b = append(c.b, *f...)
		}
	case *[]int:
		list(c, f, func(v *int) { c.field(v) })
	case *[]churnEvent:
		list(c, f, func(e *churnEvent) {
			for _, g := range []any{&e.cycle, &e.node, &e.nodes, &e.on, &e.load} {
				c.field(g)
			}
		})
	}
}

func (sc *scenario) code(c *codec) {
	for _, f := range []any{&sc.h, &sc.mech, &sc.pat, &sc.load, &sc.seed, &sc.warmup, &sc.total,
		&sc.wiring.model, &sc.wiring.local, &sc.wiring.global, &sc.wiring.step, (*int)(&sc.arb),
		&sc.workers, &sc.oracleWorkers, &sc.probeEvery, &sc.script, &sc.finishAt, &sc.captureLoad, &sc.stride} {
		c.field(f)
	}
}

func (sc scenario) encode() []byte {
	var c codec
	sc.code(&c)
	return c.b
}

func decodeScenario(b []byte) (scenario, error) {
	var sc scenario
	c := codec{b: b, dec: true}
	sc.code(&c)
	if c.err == nil && len(c.b) > 0 {
		c.err = errors.New("trailing bytes")
	}
	return sc, c.err
}

// config is sc's configuration for a run of its first k cycles.
func (sc *scenario) config(k int64, workers int) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(sc.h)
	cfg.Mechanism, cfg.Pattern, cfg.Load, cfg.Seed = sc.mech, sc.pat, sc.load, sc.seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.Workers = sc.warmup, k-sc.warmup, workers
	cfg.LatencyModel = sc.wiring.latency()
	cfg.Router.Arbitration = sc.arb
	return cfg
}

// full is sc's configuration for its whole run, on the oracle's workers.
func (sc scenario) full() Config { return sc.config(sc.total, sc.oracleWorkers) }

func (sc *scenario) controller() Controller {
	switch {
	case sc.finishAt > 0:
		return &finishingChurn{churnController{sc.script}, sc.finishAt}
	case sc.script != nil:
		return &churnController{sc.script}
	}
	return nil
}

// side is one finished run of a scenario.
type side struct {
	net    *Network
	res    *Result
	stream string      // the probe stream
	spy    *releaseSpy // the core's engine, when the row counts releases
}

// run drives sc's first k cycles on the oracle, or on the core with
// `workers` workers, restored from snap when there is one and driven through
// releaseSpy when spy is set.
func (sc *scenario) run(t *testing.T, im impl, k int64, workers int, snap *Snapshot, spy bool) side {
	t.Helper()
	cfg := sc.config(k, workers)
	var stream bytes.Buffer
	if sc.probeEvery > 0 {
		cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: sc.probeEvery, Out: &stream})
	}
	var s side
	var err error
	if im.name == oracle.name {
		if s.net, err = oracle.build(&cfg, nil); err == nil {
			err = oracle.drive(s.net, &cfg, sc.controller())
		}
	} else {
		if snap != nil {
			s.net, err = RestoreNetwork(snap, &cfg)
		} else {
			s.net, err = core.build(&cfg, nil)
		}
		if err == nil {
			eng := newEngine(s.net, min(workers, s.net.topo.NumGroups()))
			var e Engine = eng
			if spy {
				s.spy = &releaseSpy{engine: eng}
				e = s.spy
			}
			err = Drive(s.net, sc.warmup, k, sc.controller(), e)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	s.res, s.stream = newResult(s.net, &cfg, 0), stream.String()
	return s
}

// diff describes the first difference between a core run and the oracle's
// run of the same cycles, or returns "": the fabrics (fabricDiff), the
// results, the probe streams, and each side's packet ledger. The ledgers are
// not compared with each other — the free lists see generation and delivery
// in different orders, so they allocate differently — but every packet
// either side allocated must be live or free.
func (got side) diff(want side) string {
	if d := fabricDiff(got.net, want.net); d != "" {
		return d
	}
	if !reflect.DeepEqual(got.res, want.res) {
		return fmt.Sprintf("results differ:\n got %+v\nwant %+v", *got.res, *want.res)
	}
	if got.stream != want.stream {
		g, w := strings.Split(got.stream, "\n"), strings.Split(want.stream, "\n")
		i := 0
		for i < min(len(g), len(w)) && g[i] == w[i] {
			i++
		}
		return fmt.Sprintf("probe stream line %d differs (%d and %d lines)", i+1, len(g), len(w))
	}
	for _, s := range []side{got, want} {
		if allocated, free := PacketCounts(s.net); allocated != s.net.InFlight()+free {
			return fmt.Sprintf("%d packets allocated, %d live + %d free", allocated, s.net.InFlight(), free)
		}
	}
	return ""
}

// checks are a row's own assertions, made on its full-length runs once they
// compared equal.
type checks struct {
	steps       int64    // > 0: every core run executes exactly this many router-steps
	windows     [2]int64 // hi > 0: every core run is cut into lo..hi windows
	releases    bool     // the core runs through releaseSpy, which must count a release
	busyBatches bool     // each of the eight batch-means spans sees a delivery
	backlog     bool     // generation was refused and a source queue ends at its bound
	pbSkips     bool     // the oracle refreshes PiggyBack state every group-cycle, the core less
}

func pinned(steps, windows int64) checks {
	return checks{steps: steps, windows: [2]int64{windows, windows}}
}

func windowsIn(lo, hi int64) checks { return checks{windows: [2]int64{lo, hi}} }

func (c checks) verify(t *testing.T, sc *scenario, want, got side, w int) {
	t.Helper()
	if sc.stride == 0 && want.res.Delivered() == 0 {
		t.Fatal("the oracle delivered nothing")
	}
	// Both sides share the driver, so its stop cycle is checked on its own.
	if sc.finishAt > 0 && want.res.MeasuredCycles != sc.finishAt+1-sc.warmup {
		t.Fatalf("measured %d cycles, want %d", want.res.MeasuredCycles, sc.finishAt+1-sc.warmup)
	}
	if c.busyBatches && slices.Contains(want.res.Total.BatchPhits[:], 0) {
		t.Fatalf("a batch-means span saw no delivery: %v", want.res.Total.BatchPhits)
	}
	if c.backlog {
		full, bound := 0, want.net.rcfg.InjectionQueuePackets
		for r := range want.net.topo.NumRouters() {
			for i := range want.net.topo.Params().P {
				if want.net.fab.InjectionBacklog(r, i) == bound {
					full++
				}
			}
		}
		if want.res.Backlogged() == 0 || full == 0 {
			t.Fatalf("%d generation attempts refused, %d source queues at their %d-packet bound", want.res.Backlogged(), full, bound)
		}
	}
	if c.pbSkips {
		dense := int64(want.net.topo.NumGroups()) * sc.total
		if u := want.net.pb.totalUpdates(); u != dense {
			t.Fatalf("the oracle refreshed %d group-cycles, want every one (%d)", u, dense)
		}
		if u := got.net.pb.totalUpdates(); u >= dense {
			t.Errorf("workers=%d: the core refreshed %d of %d group-cycles: nothing skipped", w, u, dense)
		}
	}
	if got := got.net.EngineSteps(); c.steps > 0 && got != c.steps {
		t.Errorf("workers=%d: %d router-steps, pinned %d", w, got, c.steps)
	}
	if got, lo, hi := got.net.EngineWindows(), c.windows[0], c.windows[1]; hi > 0 && (got < lo || got > hi) {
		t.Errorf("workers=%d: %d windows, want %d..%d", w, got, lo, hi)
	}
	if c.releases && got.spy.found == 0 {
		t.Errorf("workers=%d: no sleeping router had a release fall due on a window's last cycle", w)
	}
}

// check is the runner: at each compared prefix, the oracle once and the core
// at each of its worker counts, every difference bisected to the first
// cycle that shows it, then the row's own checks on the full-length runs.
func (sc scenario) check(t *testing.T, c checks) {
	t.Helper()
	var snap *Snapshot
	if sc.captureLoad > 0 {
		cfg := sc.config(sc.total, 1)
		cfg.Load = sc.captureLoad
		var err error
		if snap, err = NewSnapshot(cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	ks := []int64{sc.total}
	if sc.stride > 0 {
		ks = nil
		for k := sc.warmup + 1; k <= sc.total; k += sc.stride {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		want := sc.run(t, oracle, k, sc.oracleWorkers, nil, false)
		for _, w := range workerCounts(sc.workers...) {
			got := sc.run(t, core, k, w, snap, c.releases)
			if d := got.diff(want); d != "" {
				_, at := firstDivergence(sc.warmup, k, d, func(m int64) string {
					return sc.run(t, core, m, w, snap, false).diff(sc.run(t, oracle, m, sc.oracleWorkers, nil, false))
				})
				t.Fatalf("workers=%d, %d cycles: %s", w, k, at)
			}
			if k == sc.total {
				c.verify(t, &sc, want, got, w)
			}
		}
	}
}

// when says in which runs a row runs.
type when int

const (
	always    when = iota
	longOnly       // outside -short
	shortOnly      // under -short: a longOnly row runs the scenario at stride 1
	noRace         // outside the race detector
)

type oracleRow struct {
	name   string
	when   when
	sc     scenario
	checks checks
}

// equiv is the cross-engine matrix's point: h=2, 500 + 1,500 cycles, the
// core on 1, 2 and 4 workers.
func equiv(mech, pat string, load float64) scenario {
	return scenario{h: 2, mech: mech, pat: pat, load: load, seed: 1, warmup: 500, total: 2000,
		workers: []int{1, 2, 4}, oracleWorkers: 1}
}

// h3At is equiv at h=3 (114 routers, 342 nodes), seed 7, the core on 1 and 2.
func h3At(mech, pat string, load float64) scenario {
	sc := equiv(mech, pat, load)
	sc.h, sc.seed, sc.workers = 3, 7, []int{1, 2}
	return sc
}

// engineAt is the engine benchmark's operating point: In-Trns-MM under UN,
// a fifth of the cycles warm-up, the oracle on oracleWorkers.
func engineAt(h int, load float64, oracleWorkers int, cycles int64) scenario {
	return scenario{h: h, mech: "In-Trns-MM", pat: "UN", load: load, seed: 1, warmup: cycles / 5, total: cycles,
		workers: []int{1, 2}, oracleWorkers: oracleWorkers}
}

// edge is the window-edge rows' point: h=2, 150 + 450 cycles, seed 31.
func edge(mech, pat string, load float64) scenario {
	return scenario{h: 2, mech: mech, pat: pat, load: load, seed: 31, warmup: 150, total: 600,
		workers: []int{1, 2, numCPU}, oracleWorkers: 1}
}

func (sc scenario) with(edit func(*scenario)) scenario {
	edit(&sc)
	return sc
}

// strided is a prefix scenario's two rows: every prefix outside -short,
// every seventh under it.
func strided(name string, sc scenario) []oracleRow {
	fine, coarse := sc, sc
	fine.stride, coarse.stride = 1, 7
	return []oracleRow{{name, longOnly, fine, checks{}}, {name + "/stride-7", shortOnly, coarse, checks{}}}
}

func on(cycle int64, node int, load float64) churnEvent {
	return churnEvent{cycle: cycle, node: node, on: true, load: load}
}

func off(cycle int64, node int) churnEvent { return churnEvent{cycle: cycle, node: node} }

// flipsAt toggles six nodes of an h=2 network at each of the given cycles,
// every other one on at load 0.3.
func flipsAt(cycles ...int64) []churnEvent {
	nodes := topology.New(topology.Balanced(2)).NumNodes()
	var script []churnEvent
	for i, c := range cycles {
		for k := 0; k < 6; k++ {
			script = append(script, churnEvent{cycle: c, node: (i*11 + k*5) % nodes, on: (i+k)%2 == 0, load: 0.3})
		}
	}
	return script
}

// oracleRows is the table.
func oracleRows() []oracleRow {
	transit := h3At("In-Trns-MM", "ADVc", 0.4)
	transit.arb = router.TransitOverInjection
	nondefault, skew := wiring{"uniform", 3, 17, 0}, wiring{"groupskew", 10, 100, 10}
	wired := func(sc scenario, w wiring) scenario {
		sc.wiring = w
		return sc
	}
	slack := func(seed uint64) scenario {
		sc := h3At("Src-CRG", "ADV+1", 0.7)
		sc.seed, sc.warmup, sc.total = seed, 100, 700
		return sc
	}
	churn := func(mech, pat string, load float64, total int64, script ...churnEvent) scenario {
		return scenario{h: 2, mech: mech, pat: pat, load: load, seed: 99, warmup: 4, total: total,
			workers: []int{1, 2, numCPU}, oracleWorkers: 1, script: script, stride: 1}
	}
	snapAt := func(mech, pat string, load float64, seed uint64, total int64, w wiring, probeEvery int64) scenario {
		return scenario{h: 2, mech: mech, pat: pat, load: load, seed: seed, warmup: 5, total: total, wiring: w,
			workers: []int{1, 2, numCPU}, oracleWorkers: 1, probeEvery: probeEvery, captureLoad: 0.5, stride: 1}
	}
	probed := func(oracleWorkers int, workers ...int) scenario {
		return scenario{h: 2, mech: "Src-CRG", pat: "ADVc", load: 0.35, seed: 1, warmup: 1000, total: 3000,
			workers: workers, oracleWorkers: oracleWorkers, probeEvery: 128}
	}
	rows := []oracleRow{
		// End-of-run identity across mechanism classes (Src- exercises the
		// PiggyBack refresh), patterns and loads from near-idle to saturation.
		{"matrix/MIN/UN@0.05", always, equiv("MIN", "UN", 0.05), checks{}},
		{"matrix/MIN/UN@0.35", always, equiv("MIN", "UN", 0.35), checks{}},
		{"matrix/MIN/UN@0.8", longOnly, equiv("MIN", "UN", 0.8), checks{}},
		{"matrix/MIN/ADVc@0.05", always, equiv("MIN", "ADVc", 0.05), checks{}},
		{"matrix/MIN/ADVc@0.35", always, equiv("MIN", "ADVc", 0.35), checks{}},
		{"matrix/MIN/ADVc@0.8", longOnly, equiv("MIN", "ADVc", 0.8), checks{}},
		{"matrix/Src-CRG/UN@0.05", always, equiv("Src-CRG", "UN", 0.05), checks{}},
		{"matrix/Src-CRG/UN@0.35", always, equiv("Src-CRG", "UN", 0.35), checks{}},
		{"matrix/Src-CRG/UN@0.8", longOnly, equiv("Src-CRG", "UN", 0.8), checks{}},
		{"matrix/Src-CRG/ADVc@0.05", always, equiv("Src-CRG", "ADVc", 0.05), checks{}},
		{"matrix/Src-CRG/ADVc@0.35", always, equiv("Src-CRG", "ADVc", 0.35), checks{}},
		{"matrix/Src-CRG/ADVc@0.8", longOnly, equiv("Src-CRG", "ADVc", 0.8), checks{}},
		{"matrix/In-Trns-MM/UN@0.05", longOnly, equiv("In-Trns-MM", "UN", 0.05), checks{}},
		{"matrix/In-Trns-MM/UN@0.35", longOnly, equiv("In-Trns-MM", "UN", 0.35), checks{}},
		{"matrix/In-Trns-MM/UN@0.8", longOnly, equiv("In-Trns-MM", "UN", 0.8), checks{}},
		{"matrix/In-Trns-MM/ADVc@0.05", longOnly, equiv("In-Trns-MM", "ADVc", 0.05), checks{}},
		{"matrix/In-Trns-MM/ADVc@0.35", longOnly, equiv("In-Trns-MM", "ADVc", 0.35), checks{}},
		{"matrix/In-Trns-MM/ADVc@0.8", longOnly, equiv("In-Trns-MM", "ADVc", 0.8), checks{}},

		// The link transport under Table I's latencies at 0.4 (at 0.05 they
		// are matrix rows), a non-default uniform pair and group skew.
		{"links/default/MIN@0.4", longOnly, equiv("MIN", "UN", 0.4), checks{}},
		{"links/default/In-Trns-MM@0.4", always, equiv("In-Trns-MM", "UN", 0.4), checks{}},
		{"links/nondefault/MIN@0.05", longOnly, wired(equiv("MIN", "UN", 0.05), nondefault), checks{}},
		{"links/nondefault/MIN@0.4", longOnly, wired(equiv("MIN", "UN", 0.4), nondefault), checks{}},
		{"links/nondefault/In-Trns-MM@0.05", longOnly, wired(equiv("In-Trns-MM", "UN", 0.05), nondefault), checks{}},
		{"links/nondefault/In-Trns-MM@0.4", always, wired(equiv("In-Trns-MM", "UN", 0.4), nondefault), checks{}},
		{"links/groupskew/MIN@0.05", longOnly, wired(equiv("MIN", "UN", 0.05), skew), checks{}},
		{"links/groupskew/MIN@0.4", longOnly, wired(equiv("MIN", "UN", 0.4), skew), checks{}},
		{"links/groupskew/In-Trns-MM@0.05", longOnly, wired(equiv("In-Trns-MM", "UN", 0.05), skew), checks{}},
		{"links/groupskew/In-Trns-MM@0.4", always, wired(equiv("In-Trns-MM", "UN", 0.4), skew), checks{}},

		// Which router-steps execute is a contract: the step count is the work
		// counter every perf record is normalised by, so an engine change that
		// moves it must show here, with the windows the run was cut into. A
		// wake-up is a function of the event alone, so the counts hold at any
		// worker count; they may only ever fall. Saturation, a mostly sleeping
		// PiggyBack network, jobs switched on and off mid-run, group skew, and
		// one-node jobs whose router sleeps on nothing but the node's next
		// arrival when the job departs.
		{"steps/In-Trns-MM/ADVc@0.4/transit-priority", always, transit, pinned(190178, 21)},
		{"steps/Src-CRG/UN@0.05", always, h3At("Src-CRG", "UN", 0.05), pinned(31777, 21)},
		{"steps/job-trace", always, h3At("In-Trns-MM", "UN", 0).with(func(s *scenario) {
			s.script = jobTrace([4]int64{0, 700, 0, 48}, [4]int64{1, 350, 48, 24}, [4]int64{99, 1200, 100, 60}, [4]int64{100, 1101, 200, 36},
				[4]int64{350, 1999, 48, 40}, [4]int64{777, 1300, 240, 72}, [4]int64{1200, 1700, 160, 40}, [4]int64{1301, 1302, 0, 12})
		}), pinned(66736, 27)},
		{"steps/groupskew", always, wired(h3At("In-Trns-MM", "UN", 0.2), skew), pinned(108077, 21)},
		{"steps/cancelled-generation", always, h3At("In-Trns-MM", "UN", 0).with(func(s *scenario) {
			s.script = jobTrace([4]int64{0, 300, 0, 1}, [4]int64{0, 450, 30, 1}, [4]int64{0, 610, 60, 1}, [4]int64{0, 777, 90, 1},
				[4]int64{100, 900, 120, 1}, [4]int64{200, 1000, 150, 1}, [4]int64{300, 1200, 180, 1}, [4]int64{400, 1500, 210, 1})
		}), pinned(1683, 23)},
		// The engine benchmark's nine points (TestEngineSpeedupOverOracle
		// times the h=3 ones). Under the race detector they would add a
		// minute of dense runs and no concurrency the rows above lack.
		{"steps/engine/h=3/UN@0.1", noRace, engineAt(3, 0.1, 1, 1000), pinned(30639, 10)},
		{"steps/engine/h=3/UN@0.2", noRace, engineAt(3, 0.2, 1, 1000), pinned(54518, 10)},
		{"steps/engine/h=3/UN@0.3", noRace, engineAt(3, 0.3, 1, 1000), pinned(72372, 10)},
		{"steps/engine/h=3/UN@0.6", noRace, engineAt(3, 0.6, 1, 1000), pinned(102473, 10)},
		{"steps/engine/h=3/UN@0.8", noRace, engineAt(3, 0.8, 1, 1000), pinned(109135, 10)},
		{"steps/engine/h=4/UN@0.1", noRace, engineAt(4, 0.1, 2, 500), pinned(41389, 5)},
		{"steps/engine/h=4/UN@0.3", noRace, engineAt(4, 0.3, 2, 500), pinned(91421, 5)},
		{"steps/engine/h=4/UN@0.6", noRace, engineAt(4, 0.6, 2, 500), pinned(119850, 5)},
		{"steps/engine/h=4/UN@0.8", noRace, engineAt(4, 0.8, 2, 500), pinned(125760, 5)},

		// Window edges: the engine advances in windows of up to one global-link
		// latency, cut wherever the driver touches the whole network.
		// Six 100-cycle windows; the warm-up and batch boundaries are no cuts.
		{"window/plain", always, edge("In-Trns-MM", "ADVc", 0.45), windowsIn(6, 6)},
		// Shorter than the lookahead: warm-up and eight batches in one window.
		{"window/whole-run-in-one", always, edge("MIN", "UN", 0.9).with(func(s *scenario) { s.warmup, s.total = 15, 45 }), windowsIn(1, 1)},
		// One lookahead long; short local cables make every batch deliver.
		{"window/one-full-window-eight-busy-batches", always, edge("MIN", "UN", 0.9).with(func(s *scenario) {
			s.warmup, s.total, s.wiring = 60, 100, wiring{"uniform", 2, 100, 0}
		}), checks{windows: [2]int64{1, 1}, busyBatches: true}},
		// Events mid-window, one short of a boundary, on it, one past it, on
		// the warm-up flip and on the run's last cycle.
		{"window/events-on-edges", always, edge("Src-CRG", "UN", 0.3).with(func(s *scenario) { s.script = flipsAt(37, 99, 100, 101, 150, 299, 300, 599) }), windowsIn(10, 30)},
		// 7 and 100 are coprime: the probe cut falls on every offset of a window.
		{"window/probes-coprime", always, edge("Src-CRG", "ADVc", 0.45).with(func(s *scenario) { s.probeEvery, s.script = 7, flipsAt(50, 200) }), windowsIn(600/7, 600/7+30)},
		// Every source falls silent: groups go idle one by one, right after the
		// step that cleared their last PiggyBack bits, which the probes must
		// still find one cycle behind.
		{"window/drain-under-probes", always, edge("Src-CRG", "ADVc", 0.9).with(func(s *scenario) { s.probeEvery, s.script = 3, silenceAll(300, 72) }), windowsIn(600/3, 600/3+30)},
		{"window/probe-every-cycle", always, edge("Src-CRG", "ADVc", 0.3).with(func(s *scenario) { s.probeEvery = 1 }), windowsIn(600, 600)},
		// A mostly sleeping PiggyBack network: at a window's end the probe reads
		// occupancies the driver's Settle moved on the window's last cycle, and
		// PiggyBack bits that must not know yet.
		{"window/sleepers-releases-every-cycle", always, edge("Src-CRG", "UN", 0.05).with(func(s *scenario) { s.probeEvery = 1 }),
			checks{windows: [2]int64{600, 600}, releases: true}},
		{"window/sleepers-releases-every-7th", always, edge("Src-CRG", "UN", 0.05).with(func(s *scenario) { s.probeEvery = 7 }),
			checks{windows: [2]int64{600 / 7, 600/7 + 7}, releases: true}},
		// Windows [0,10) [10,110) [110,210) [210,211) [211,311), then the finish
		// event cuts [311,411) at 333 and the run ends with [333,334); then the
		// same, finishing where a full window would have started.
		{"window/finisher-mid-lookahead", always, edge("In-Trns-MM", "UN", 0.45).with(func(s *scenario) { s.script, s.finishAt = flipsAt(10, 211), 333 }), windowsIn(7, 7)},
		{"window/finisher-on-first-cycle", always, edge("In-Trns-MM", "UN", 0.45).with(func(s *scenario) { s.script, s.finishAt = flipsAt(10, 211), 311 }), windowsIn(6, 6)},
		{"window/one-1-cycle-global-link", always, edge("Src-CRG", "ADVc", 0.45).with(func(s *scenario) {
			s.wiring, s.probeEvery, s.script = wiring{"one-short-link", 10, 100, 0}, 64, flipsAt(37, 100)
		}), windowsIn(600, 600)},

		// Source queues at their 256-packet bound (MIN under ADVc at full
		// offered load): only the credit protocol and this bound limit them.
		{"deep-backlog", always, scenario{h: 2, mech: "MIN", pat: "ADVc", load: 1, seed: 1, warmup: 2000, total: 3000,
			workers: []int{1, 2}, oracleWorkers: 1}, checks{backlog: true}},

		// A global output's credit ring drains with the lookahead as slack:
		// the receiver's group may be up to a window behind the sender. The
		// rings fill a few hundred cycles in, at places that vary by seed.
		{"global-slack/seed-1", always, slack(1), checks{}},
		{"global-slack/seed-2", longOnly, slack(2), checks{}},
		{"global-slack/seed-3", longOnly, slack(3), checks{}},

		// The core refreshes a group's PiggyBack bits only when the group
		// stepped; at a load that leaves routers asleep that skips refreshes.
		{"pb-refresh/ADV+1", always, equiv("Src-RRG", "ADV+1", 0.15), checks{pbSkips: true}},
		{"pb-refresh/ADVc", always, equiv("Src-RRG", "ADVc", 0.15), checks{pbSkips: true}},
		{"pb-refresh/UN", always, equiv("Src-RRG", "UN", 0.15), checks{pbSkips: true}},

		// The probe stream and summary on every worker count of either engine.
		{"probes", always, probed(1, 1, 2, numCPU), checks{}},
		{"probes/oracle-on-2", always, probed(2, 1), checks{}},
	}

	// The whole state after every prefix of a short run under mid-run churn
	// (nodes silenced, others re-activated, some at another load), so the
	// reconfigured generation calendar, forced wakes and recycled
	// allocations are live while the engines are compared.
	rows = append(rows, strided("churn-0", churn("Src-CRG", "UN", 0.8, 66,
		on(40, 58, 0.3), on(43, 52, 0), on(38, 43, 0), on(35, 36, 0), off(61, 67), off(34, 54), off(17, 3)))...)
	rows = append(rows, strided("churn-1", churn("MIN", "ADVc", 0.8, 66,
		on(6, 33, 0.3), on(26, 5, 0.3), on(49, 20, 0.3), off(52, 24), off(26, 12), off(47, 1), on(53, 47, 0)))...)
	// Restored from a construction snapshot captured at another load
	// (templates are load-agnostic), against a cold oracle build.
	rows = append(rows, strided("snapshot-0", snapAt("Obl-CRG", "ADVc", 0.85, 7, 66, wiring{}, 16))...)
	rows = append(rows, strided("snapshot-1", snapAt("Src-CRG", "UN", 0.5, 8, 77, wiring{"groupskew", 3, 11, 2}, 16))...)
	return append(rows,
		oracleRow{"churn-2", longOnly, churn("Src-CRG", "UN", 0.8, 41,
			on(38, 63, 0), on(5, 65, 0), on(2, 25, 0.3), on(10, 61, 0), on(17, 27, 0), off(20, 32)), checks{}},
		oracleRow{"churn-3", longOnly, churn("In-Trns-MM", "UN", 0.45, 60,
			off(2, 2), on(47, 17, 0.3), off(40, 36), off(56, 7), off(28, 59), on(28, 62, 0.3)), checks{}},
		oracleRow{"snapshot-2", longOnly, snapAt("Obl-CRG", "ADVc", 0.2, 9, 80, wiring{}, 0), checks{}})
}

// The table's rows fall in ten families, a family being a row-name prefix,
// and each family runs as one test.
var oracleFamilies = []string{"matrix/", "steps/", "churn-", "window/", "deep-backlog",
	"global-slack/", "links/", "pb-refresh/", "probes", "snapshot-"}

// The end of a run, for each routing mechanism, pattern and load.
func TestSchedulerMatchesReferenceEngine(t *testing.T) { runOracleFamily(t, "matrix/") }

// The router-steps and windows each scenario executes, pinned.
func TestEngineStepsPinned(t *testing.T) { runOracleFamily(t, "steps/") }

// Every prefix of a run under scripted membership churn.
func TestStateEquivalenceUnderChurn(t *testing.T) { runOracleFamily(t, "churn-") }

// Window edges: events, probes and finishers on and around every cut.
func TestWindowEdgesMatchOracle(t *testing.T) { runOracleFamily(t, "window/") }

// Source queues held at their bound.
func TestDeepBacklogMatchesOracle(t *testing.T) { runOracleFamily(t, "deep-backlog") }

// Global credit rings drained with the lookahead as slack.
func TestGlobalCreditSlackMatchesOracle(t *testing.T) { runOracleFamily(t, "global-slack/") }

// The link latency models and wirings.
func TestCoreLinksMatchRingLinkReference(t *testing.T) { runOracleFamily(t, "links/") }

// PiggyBack refreshes skipped for groups that did not step.
func TestPBRefreshSchedulerBitIdentical(t *testing.T) { runOracleFamily(t, "pb-refresh/") }

// The probe stream on every worker count of either engine.
func TestProbeStreamEngineInvariance(t *testing.T) { runOracleFamily(t, "probes") }

// Every prefix of a run restored from a construction snapshot.
func TestConstructionSnapshotBitIdentical(t *testing.T) { runOracleFamily(t, "snapshot-") }

// runOracleFamily runs every row of the table whose name starts with
// family, each as the decoding of its own encoding. A row in no family, or
// in two, fails every family, so no row goes unrun.
func runOracleFamily(t *testing.T, family string) {
	t.Parallel()
	for _, row := range oracleRows() {
		in := 0
		for _, f := range oracleFamilies {
			if strings.HasPrefix(row.name, f) {
				in++
			}
		}
		if in != 1 {
			t.Fatalf("row %s is in %d families of %q, not one", row.name, in, oracleFamilies)
		}
		if !strings.HasPrefix(row.name, family) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			sc, err := decodeScenario(row.sc.encode())
			if err != nil || !reflect.DeepEqual(sc, row.sc) {
				t.Fatalf("the encoding does not round-trip (%v):\n got %+v\nwant %+v", err, sc, row.sc)
			}
			switch {
			case row.when == longOnly && testing.Short():
				t.Skip("outside -short only")
			case row.when == shortOnly && !testing.Short():
				t.Skip("under -short only: the long run compares every prefix")
			case row.when == noRace && raceEnabled:
				t.Skip("outside the race detector only")
			}
			sc.check(t, row.checks)
		})
	}
}

// churnEvent is one scripted membership change of nodes node, node+1, …
// (nodes of them, at least one).
type churnEvent struct {
	cycle int64
	node  int
	nodes int
	on    bool
	load  float64 // 0 inherits the run's configured load
}

// churnController replays a fixed event script through the Reconfig
// handle. It is a deterministic function of the script alone, so the same
// script yields bit-identical runs on every engine and worker count.
// NextEvent returns the first later event in script order, so a script is
// normally sorted by cycle.
type churnController struct {
	events []churnEvent
}

func (c *churnController) NextEvent(now int64) int64 {
	for _, e := range c.events {
		if e.cycle > now {
			return e.cycle
		}
	}
	return -1
}

func (c *churnController) Apply(rc *Reconfig, now int64) {
	for _, e := range c.events {
		if e.cycle != now {
			continue
		}
		for n := e.node; n < e.node+max(e.nodes, 1); n++ {
			if e.on {
				rc.SetNodeActive(n, e.load)
			} else {
				rc.SetNodeSilent(n)
			}
		}
	}
}

// silenceAll scripts the first `nodes` nodes falling silent at cycle.
func silenceAll(cycle int64, nodes int) []churnEvent {
	return []churnEvent{{cycle: cycle, nodes: nodes}}
}

// jobTrace scripts a small job trace: every job {arrival, departure, first
// node, nodes} switches a block of consecutive nodes on at load 0.3 at its
// arrival and off at its departure.
func jobTrace(jobs ...[4]int64) []churnEvent {
	var script []churnEvent
	for _, j := range jobs {
		script = append(script,
			churnEvent{cycle: j[0], node: int(j[2]), nodes: int(j[3]), on: true, load: 0.3},
			churnEvent{cycle: j[1], node: int(j[2]), nodes: int(j[3])})
	}
	sort.SliceStable(script, func(a, b int) bool { return script[a].cycle < script[b].cycle })
	return script
}

// finishingChurn is a churnController that also ends the run at cycle at.
// A Finisher may first report true only at a cycle it named through
// NextEvent — the driver asks Finished right after Apply and nowhere else —
// so the finish cycle is an event of its own (with nothing to apply).
type finishingChurn struct {
	churnController
	at int64
}

func (f *finishingChurn) NextEvent(now int64) int64 {
	next := f.churnController.NextEvent(now)
	if f.at > now && (next < 0 || f.at < next) {
		next = f.at
	}
	return next
}

func (f *finishingChurn) Finished(now int64) bool { return now >= f.at }

// oneShortLink is the Table I latency model with a single 1-cycle cable,
// between groups 0 and 1. The engine's lookahead is the shortest global
// link, so one such cable collapses every window to a single cycle.
type oneShortLink struct{ topology.UniformLatency }

func (oneShortLink) Name() string { return "one-short-link" }

func (m oneShortLink) GlobalLatency(t *topology.Topology, src, dst int) int {
	if t.RouterGroup(src)+t.RouterGroup(dst) == 1 {
		return 1
	}
	return m.Global
}

// releaseSpy is the production engine with a Settle that does the same in
// two steps — up to the cycle before, then the cycle itself — to count the
// routers whose output occupancy falls in the second: a buffer release due on
// exactly the window's last cycle, at a router that did not step in it (its
// own step would have applied the release, and Settle would find nothing).
type releaseSpy struct {
	*engine
	found int
}

func (s *releaseSpy) Settle(upTo int64) {
	s.engine.Settle(upTo - 1)
	before := make([]int64, len(s.wakeAt))
	for r := range before {
		_, before[r] = s.core.ProbeQueues(r)
	}
	s.engine.Settle(upTo)
	for r := range before {
		if _, after := s.core.ProbeQueues(r); after < before[r] {
			s.found++
		}
	}
}
