package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// runProbed runs one simulation on the core with a fresh probe recorder and
// returns the outcome, the JSONL stream, and the summary.
func runProbed(t *testing.T, cfg Config, every int64) (outcome, string, *telemetry.Summary) {
	t.Helper()
	var buf bytes.Buffer
	if every > 0 {
		cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: every, Out: &buf})
	}
	res := runOn(t, core, cfg)
	return res, buf.String(), res.Telemetry
}

// Probes are pure reads: the result must be bit-identical with probes off,
// and at any cadence (cadences with different phase alignment included).
// Src-CRG exercises the PiggyBack state, ADVc the congestion the probes are
// for.
func TestProbeCadenceInvariance(t *testing.T) {
	cfg := small()
	cfg.Mechanism, cfg.Pattern, cfg.Load = "Src-CRG", "ADVc", 0.35
	base, stream, tm := runProbed(t, cfg, 0)
	if stream != "" || tm != nil {
		t.Fatal("probes off must produce no stream and no summary")
	}
	for _, every := range []int64{64, 193} {
		res, stream, tm := runProbed(t, cfg, every)
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

// What probes cost: the engine benchmark's h=3 point at UN 0.2 over 2,000
// cycles with probes off (every0) and sampling every 256 cycles
// (every256). Advisory: the two should stay within about 5 % of each
// other, a bound inside a shared machine's noise, so no test gates it;
// TestProbeCadenceInvariance holds the probed run to the unprobed one.
func BenchmarkProbes(b *testing.B) {
	for _, every := range []int64{0, 256} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			cfg := engineAt(3, 0.2, 1, 2000).full()
			for range b.N {
				b.StopTimer()
				if every > 0 {
					cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: every, Out: io.Discard})
				}
				net, err := NewNetwork(&cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := RunNetwork(net, &cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
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
