package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// probedCfg is the shared scenario of the probe tests: Src-CRG exercises
// the PiggyBack state, ADVc the congestion the probes are for.
func probedCfg() Config {
	cfg := small()
	cfg.Mechanism = "Src-CRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.35
	return cfg
}

// runProbed runs one simulation with a fresh probe recorder and returns
// the outcome, the JSONL stream, and the summary. reference selects the
// dense oracle instead of the core.
func runProbed(t *testing.T, cfg Config, every int64, reference bool) (outcome, string, *telemetry.Summary) {
	t.Helper()
	var buf bytes.Buffer
	if every > 0 {
		cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: every, Out: &buf})
	}
	im := core
	if reference {
		im = oracle
	}
	res := runOn(t, im, cfg)
	return res, buf.String(), res.Telemetry
}

// Probes are pure reads: the result must be bit-identical with probes off,
// and at any cadence (cadences with different phase alignment included).
func TestProbeCadenceInvariance(t *testing.T) {
	cfg := probedCfg()
	base, stream, tm := runProbed(t, cfg, 0, false)
	if stream != "" || tm != nil {
		t.Fatal("probes off must produce no stream and no summary")
	}
	for _, every := range []int64{64, 193} {
		res, stream, tm := runProbed(t, cfg, every, false)
		if d := res.acc.diff(base.acc); d != "" {
			t.Fatalf("every=%d: probes on: %s", every, d)
		}
		if tm == nil || tm.Samples == 0 {
			t.Fatalf("every=%d: no telemetry summary", every)
		}
		total := cfg.WarmupCycles + cfg.MeasureCycles
		want := int((total-1)/every) + 1 // cycles 0..total-1 divisible by every
		if tm.Samples != want {
			t.Fatalf("every=%d: %d samples, want %d", every, tm.Samples, want)
		}
		if n := strings.Count(stream, "\n"); n != want {
			t.Fatalf("every=%d: %d JSONL lines, want %d", every, n, want)
		}
	}
}

// The probe stream itself is engine- and worker-invariant: samples read
// only state proven bit-identical at every cycle boundary, at the same
// point of the cycle in all four engines.
func TestProbeStreamEngineInvariance(t *testing.T) {
	cfg := probedCfg()
	const every = 128
	cfg.Workers = 1
	_, refStream, refSum := runProbed(t, cfg, every, false)
	if refStream == "" {
		t.Fatal("no probe stream")
	}
	runs := []struct {
		name      string
		workers   int
		reference bool
	}{
		{"sched-w2", 2, false},
		{"sched-wN", runtime.NumCPU(), false},
		{"ref-seq", 1, true},
		{"ref-par", 2, true},
	}
	for _, r := range runs {
		c := cfg
		c.Workers = r.workers
		_, stream, sum := runProbed(t, c, every, r.reference)
		if stream != refStream {
			t.Fatalf("%s: probe stream differs from sched-w1", r.name)
		}
		if !reflect.DeepEqual(sum, refSum) {
			t.Fatalf("%s: summary differs: %+v vs %+v", r.name, sum, refSum)
		}
	}
}

// Multi-job runs expose per-job delivery series in the probe stream.
func TestProbeJobSeries(t *testing.T) {
	cfg := small()
	cfg.Mechanism = "MIN"
	cfg.Load = 0.3
	topo := topology.New(cfg.Topology)
	spec := workload.Spec{Jobs: []workload.JobSpec{
		{Name: "a", Nodes: 24, Alloc: workload.AllocConsecutive},
		{Name: "b", Nodes: 24, Alloc: workload.AllocSpread},
	}}
	wl, err := workload.Compile(topo, spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: 500, Out: &buf})
	res, err := RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumJobs() != 2 {
		t.Fatalf("NumJobs = %d", res.NumJobs())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Jobs []struct {
			Delivered int64 `json:"delivered"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Jobs) != 2 {
		t.Fatalf("last sample has %d job entries, want 2", len(last.Jobs))
	}
	if last.Jobs[0].Delivered == 0 && last.Jobs[1].Delivered == 0 {
		t.Fatal("no job deliveries observed by the final sample")
	}
}
