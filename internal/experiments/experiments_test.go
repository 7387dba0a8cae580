package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

// testOptions shrinks the pipeline to a laptop-second scale: a 72-node
// network, short phases, three mechanisms, two loads, one seed — 42
// owned simulations (fig3 derives from fig2c), every figure kind
// represented.
func testOptions() (sim.Config, Options) {
	base := sim.DefaultConfig() // balanced h=2
	base.WarmupCycles = 200
	base.MeasureCycles = 400
	return base, Options{
		Loads:      []float64{0.1, 0.2},
		Seeds:      []uint64{1},
		FairLoad:   0.2,
		Mechanisms: []string{"MIN", "Obl-RRG", "In-Trns-MM"},
	}
}

// seriesOf projects results to the comparable payload (task name → series).
func seriesOf(t *testing.T, results []TaskResult) map[string][]sweep.Series {
	t.Helper()
	out := make(map[string][]sweep.Series, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.Task.Name, r.Err)
		}
		if r.Series == nil {
			t.Fatalf("task %s: no series", r.Task.Name)
		}
		out[r.Task.Name] = r.Series
	}
	return out
}

func TestPipelineBuild(t *testing.T) {
	base, opt := testOptions()
	p := Build(base, opt)
	names := make([]string, len(p.Tasks))
	for i, task := range p.Tasks {
		names[i] = task.Name
	}
	want := []string{"fig2a", "fig2b", "fig2c", "fig5a", "fig5b", "fig5c", "fig3", "fig4", "fig6", "ext-age"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("tasks %v, want %v", names, want)
	}
	// MIN must be excluded from the fairness tasks, as in the paper.
	for _, task := range p.Tasks {
		if task.Kind != FairnessTables {
			continue
		}
		for _, m := range task.Grid.Mechanisms {
			if m == "MIN" {
				t.Fatalf("task %s sweeps MIN", task.Name)
			}
		}
	}
	// 6 curve tasks × (3 mech × 2 loads) + 3 fairness tasks × 2 non-MIN
	// mechanisms = 42. fig3 is derived from fig2c (In-Trns-MM is swept)
	// and owns no simulations.
	if p.TotalPoints() != 42 {
		t.Fatalf("TotalPoints = %d, want 42", p.TotalPoints())
	}
	if fig3 := p.taskByName("fig3"); fig3 == nil || fig3.deriveFrom == nil || fig3.deriveFrom.Name != "fig2c" {
		t.Fatal("fig3 is not derived from fig2c despite In-Trns-MM being swept")
	}

	// Without In-Trns-MM in the sweep, fig3 must own its simulations.
	o := opt
	o.Mechanisms = []string{"MIN", "Obl-RRG"}
	alone := Build(base, o)
	if fig3 := alone.taskByName("fig3"); fig3 == nil || fig3.deriveFrom != nil {
		t.Fatal("fig3 should be standalone when In-Trns-MM is not swept")
	}
}

// A derived fig3 must render exactly what a standalone fig3 simulates:
// the same (In-Trns-MM, ADVc) grid through the subset-of-fig2c path and
// through its own batch must agree bit for bit.
func TestPipelineFig3DerivationMatchesStandalone(t *testing.T) {
	base, opt := testOptions()
	derived := Build(base, opt) // In-Trns-MM swept → fig3 derived
	dRes, err := derived.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	o := opt
	o.Mechanisms = []string{"MIN", "Obl-RRG"} // fig3 standalone
	standalone := Build(base, o)
	sRes, err := standalone.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dFig3 := seriesOf(t, dRes)["fig3"]
	sFig3 := seriesOf(t, sRes)["fig3"]
	if len(dFig3) == 0 || !reflect.DeepEqual(dFig3, sFig3) {
		t.Fatalf("derived fig3 differs from standalone:\nderived:    %+v\nstandalone: %+v", dFig3, sFig3)
	}
}

// The pipeline smoke test of the -short tier: checkpoint write, an
// interrupted run resumed to completion, and bit-identical results across
// (a) worker counts and (b) the interrupt/resume split.
func TestPipelineCheckpointResumeAndWorkers(t *testing.T) {
	base, opt := testOptions()
	dir := t.TempDir()

	// Reference: one uninterrupted, unlimited-parallelism run.
	ref := Build(base, opt)
	refResults, err := ref.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seriesOf(t, refResults)

	// Workers 1, 2 and NumCPU must be bit-identical.
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		o := opt
		o.Workers = workers
		p := Build(base, o)
		results, err := p.Run(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := seriesOf(t, results); !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d results differ from reference", workers)
		}
	}

	// Interrupted run: cancel after seven completions — points are claimed
	// in order, so fig2a's six are then all claimed and will finish. Bound the
	// in-flight count so cancellation always leaves unclaimed points —
	// on a many-core machine an unbounded run could claim (and thus
	// complete) every point before the cancel lands.
	ckPath := filepath.Join(dir, "checkpoint.jsonl")
	oi := opt
	oi.Workers = 2
	interrupted := Build(base, oi)
	ck, err := sweep.OpenCheckpoint(ckPath, interrupted.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	partResults, runErr := interrupted.Run(ctx, ck, func(p Progress) {
		if p.Done >= 7 {
			cancel()
		}
	})
	cancel()
	if runErr != context.Canceled {
		t.Fatalf("interrupted Run returned %v, want context.Canceled", runErr)
	}
	// A task keeps its series exactly when every one of its points made it
	// into the checkpoint; the others report the cancellation.
	kept := 0
	for _, r := range partResults {
		complete := true
		for _, pt := range r.Task.Points() {
			if _, ok := ck.Lookup(r.Task.ckptTask(), pt); !ok {
				complete = false
			}
		}
		switch {
		case complete && !reflect.DeepEqual(r.Series, want[r.Task.Name]):
			t.Errorf("task %s finished before the interrupt but its series differ from the reference", r.Task.Name)
		case !complete && (r.Series != nil || r.Err != context.Canceled):
			t.Errorf("task %s was cut short but reports series %v, err %v", r.Task.Name, r.Series != nil, r.Err)
		case complete:
			kept++
		}
	}
	if kept == 0 {
		t.Error("no task kept its series, though all of fig2a's points were claimed before the interrupt")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	partial := countRecords(t, ckPath)
	if partial < 7 || partial >= interrupted.TotalPoints() {
		t.Fatalf("checkpoint holds %d records after interrupt, want a strict subset ≥ 7 of %d",
			partial, interrupted.TotalPoints())
	}

	// Resume: the same pipeline completes from the checkpoint, skipping
	// finished work, and the results match the uninterrupted reference
	// bit for bit.
	resumed := Build(base, opt)
	ck2, err := sweep.OpenCheckpoint(ckPath, resumed.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != partial {
		t.Fatalf("reloaded %d records, want %d", ck2.Len(), partial)
	}
	// The second run restores exactly the points the first one stored.
	var restoredPts atomic.Int64
	results, err := resumed.Run(context.Background(), ck2, func(p Progress) {
		if p.PointRestored {
			restoredPts.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(restoredPts.Load()) != partial {
		t.Fatalf("resume restored %d points, the checkpoint held %d", restoredPts.Load(), partial)
	}
	if got := seriesOf(t, results); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed results differ from the uninterrupted reference")
	}
	if countRecords(t, ckPath) != resumed.TotalPoints() {
		t.Fatalf("completed checkpoint holds %d records, want %d",
			countRecords(t, ckPath), resumed.TotalPoints())
	}
}

// The latency-model axis replicates the task set once per model: uniform
// keeps the bare task names (so existing checkpoints stay valid), other
// models suffix theirs, each model's fig3 derives from its own fig2c, and
// widening the axis over an existing checkpoint restores every already-run
// point instead of resimulating it.
func TestLatencyModelAxis(t *testing.T) {
	base, opt := testOptions()
	axis := []topology.LatencyModel{
		topology.UniformLatency{Local: 10, Global: 100},
		topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 10},
	}

	wide := opt
	wide.LatencyModels = axis
	p := Build(base, wide)
	byName := map[string]*Task{}
	for _, task := range p.Tasks {
		byName[task.Name] = task
	}
	if len(p.Tasks) != 20 {
		t.Fatalf("axis of 2 models built %d tasks, want 20", len(p.Tasks))
	}
	for _, name := range []string{"fig2a", "fig2a@groupskew", "fig4", "fig4@groupskew"} {
		if byName[name] == nil {
			t.Fatalf("task %s missing; have %v", name, len(byName))
		}
	}
	if lm := byName["fig2a@groupskew"].Grid.Base.LatencyModel; lm == nil || lm.Name() != "groupskew" {
		t.Fatal("suffixed task does not carry the groupskew model")
	}
	if lm := byName["fig2a"].Grid.Base.LatencyModel; lm != nil && lm.Name() != "uniform" {
		t.Fatal("bare task does not carry the uniform model")
	}
	if fig3 := byName["fig3@groupskew"]; fig3 == nil || fig3.deriveFrom == nil || fig3.deriveFrom.Name != "fig2c@groupskew" {
		t.Fatal("fig3@groupskew is not derived from fig2c@groupskew")
	}

	// Checkpoint composition: run the fairness-only pipeline without the
	// axis, then widen — every axis-less point must restore.
	narrow := opt
	narrow.SkipSweeps = true
	p1 := Build(base, narrow)
	ckPath := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := sweep.OpenCheckpoint(ckPath, p1.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Run(context.Background(), ck, nil); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	widened := narrow
	widened.LatencyModels = axis
	p2 := Build(base, widened)
	if p2.Fingerprint() != p1.Fingerprint() {
		t.Fatal("widening the axis changed the fingerprint — resume impossible")
	}
	ck2, err := sweep.OpenCheckpoint(ckPath, p2.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if got, want := p2.Restorable(ck2), p1.TotalPoints(); got != want {
		t.Fatalf("widened pipeline restores %d points, want all %d axis-less ones", got, want)
	}
	results, err := p2.Run(context.Background(), ck2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := seriesOf(t, results); len(got) != len(p2.Tasks) {
		t.Fatalf("widened run produced %d series sets, want %d", len(got), len(p2.Tasks))
	}
}

// A checkpoint from a different configuration must be refused.
func TestPipelineCheckpointConfigGuard(t *testing.T) {
	base, opt := testOptions()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	p := Build(base, opt)
	ck, err := sweep.OpenCheckpoint(path, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := base
	other.MeasureCycles += 100
	if _, err := sweep.OpenCheckpoint(path, Build(other, opt).Fingerprint()); err == nil {
		t.Fatal("checkpoint from a different configuration accepted")
	}
}

// The checkpoint fingerprint of a default base is pinned byte for byte:
// every existing checkpoint carries it on its meta line, so any change to
// it would refuse them all.
func TestPipelineFingerprintPinned(t *testing.T) {
	base := sim.DefaultConfig()
	got := Build(base, Options{Loads: []float64{0.1}, Seeds: []uint64{1}, FairLoad: 0.4}).Fingerprint()
	const want = "topo=dragonfly(p=2,a=4,h=2,palmtree: 9 groups, 36 routers, 72 nodes) " +
		"router={PacketSize:8 PipelineCycles:5 Speedup:2 OutputBufferPhits:32 LocalVCPhits:32 GlobalVCPhits:256 " +
		"LocalVCs:3 GlobalVCs:2 LocalLatency:10 GlobalLatency:100 InjectionQueuePackets:256 Arbitration:round-robin " +
		"AllocIterations:2 CongestionThreshold:0.43} " +
		"routing={PacketSize:8 LocalVCs:3 GlobalVCs:2 CongestionThreshold:0.43 PBGlobalRel:3 PBLocalPkts:5 " +
		"LocalMisroute:true MisrouteTries:4 MisrouteLatencyFactor:0} " +
		"warm=2000 meas=5000 lat=default-uniform"
	if got != want {
		t.Fatalf("fingerprint of the default base changed:\n got %s\nwant %s", got, want)
	}
}

func countRecords(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n - 1 // meta line
}

// With one simulation at a time the pipeline works through its points in
// exact paper order, task after task — the order the checkpoint fills in.
func TestPipelineRunsInPaperOrder(t *testing.T) {
	base, opt := testOptions()
	opt.Workers = 1
	p := Build(base, opt)
	var want, got []sweep.Slot
	for _, task := range p.Tasks {
		if task.deriveFrom != nil {
			continue
		}
		for _, pt := range task.Points() {
			want = append(want, sweep.Slot{Task: task.Name, Point: pt})
		}
	}
	if _, err := p.Run(context.Background(), nil, func(pr Progress) {
		got = append(got, sweep.Slot{Task: pr.Task, Point: pr.Record.Point}) // one at a time: no race
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("points completed in the order\n%v\nwant paper order\n%v", got, want)
	}
}

// buildSpy is a latency model that tells a flightLog when a simulation of
// its task wires its network — the first thing a point of a grid without a
// shared snapshot cache does, building its own template.
type buildSpy struct {
	topology.UniformLatency
	task string
	log  *flightLog
}

func (s buildSpy) LocalLatency(t *topology.Topology, src, dst int) int {
	s.log.saw(s.task, t)
	return s.UniformLatency.LocalLatency(t, src, dst)
}

// flightLog counts simulations in flight: started by buildSpy, finished by
// the pipeline's progress callback (which runs before the pool hands the
// worker its next point, so the count never overstates).
type flightLog struct {
	mu sync.Mutex
	// Every such point builds its own topology; holding them here also
	// keeps their addresses from being reused.
	seen     map[*topology.Topology]bool
	inFlight int
	peak     int
	starts   map[string]int
	// The holdTask simulation that starts holdAt-th blocks until a point of
	// another task starts: proof that tasks drain into each other.
	holdTask string
	holdAt   int
	overlap  chan struct{}
}

func (l *flightLog) saw(task string, topo *topology.Topology) {
	l.mu.Lock()
	if l.seen[topo] {
		l.mu.Unlock()
		return
	}
	l.seen[topo] = true
	l.inFlight++
	l.peak = max(l.peak, l.inFlight)
	l.starts[task]++
	hold := task == l.holdTask && l.starts[task] == l.holdAt
	if task != l.holdTask && l.starts[task] == 1 && l.starts[l.holdTask] > 0 {
		select {
		case <-l.overlap:
		default:
			close(l.overlap)
		}
	}
	l.mu.Unlock()
	if hold {
		select {
		case <-l.overlap:
		case <-time.After(30 * time.Second): // the test fails on the missing overlap
		}
	}
}

func (l *flightLog) finished() {
	l.mu.Lock()
	l.inFlight--
	l.mu.Unlock()
}

// Options.Workers bounds the whole pipeline, not each figure: with two
// workers there are never more than two simulations in flight, and fig2b
// starts while fig2a's last point is still running.
func TestPipelineWorkersBoundAcrossTasks(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two pool workers")
	}
	base, opt := testOptions()
	opt.Workers = 2
	p := Build(base, opt)
	log := &flightLog{seen: map[*topology.Topology]bool{}, starts: map[string]int{}, holdTask: "fig2a", holdAt: len(p.Tasks[0].Points()), overlap: make(chan struct{})}
	for _, task := range p.Tasks {
		u := topology.UniformLatency{Local: base.Router.LocalLatency, Global: base.Router.GlobalLatency}
		task.Grid.Base.LatencyModel = buildSpy{u, task.Name, log}
		task.Grid.Snapshots = nil // no shared templates: the spy sees every point start
	}
	if _, err := p.Run(context.Background(), nil, func(Progress) { log.finished() }); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range log.starts {
		total += n
	}
	if total != p.TotalPoints() {
		t.Fatalf("saw %d simulations start, the pipeline has %d points", total, p.TotalPoints())
	}
	if log.peak != 2 {
		t.Fatalf("peak of %d simulations in flight, Workers was 2", log.peak)
	}
	select {
	case <-log.overlap:
	default:
		t.Fatal("no point of a later task started while fig2a's last point ran: a barrier between figures")
	}
}

// Every kind renders through Render: its report name resolves back to it,
// and Curves and Breakdown write their CSV beside the text; the fairness
// tables have none.
func TestRenderKinds(t *testing.T) {
	series := []sweep.Series{{Mechanism: "MIN", Pattern: "UN", Load: 0.1, Injections: []float64{1, 2, 3, 4}}}
	for name, want := range map[string]string{"curves": "Mechanism,Pattern,Load", "breakdown": "Load,Base,Misroute", "fair": "MIN,3,4,Network-wide,fairness,metrics:,Mechanism,Min"} {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		var text, csv strings.Builder
		if err := Render(&text, &csv, k, series, 1, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.Join(strings.Fields(text.String()), ","); !strings.Contains(got, want) {
			t.Errorf("%s: text lacks %q:\n%s", name, want, text.String())
		}
		if (csv.Len() > 0) != (k != FairnessTables) {
			t.Errorf("%s: CSV %q", name, csv.String())
		}
	}
	if _, err := ParseKind("histogram"); err == nil {
		t.Error("ParseKind accepted an unknown report")
	}
}
