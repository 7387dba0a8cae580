package report

import (
	"encoding/json"
	"strings"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

func runSmall(t *testing.T) *sim.Result {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.3
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 800
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := runSmall(t)
	var sb strings.Builder
	if err := WriteResultJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if back.Mechanism != "In-Trns-MM" || back.Pattern != "ADVc" {
		t.Errorf("identity fields lost: %+v", back)
	}
	if back.AcceptedLoad != res.Throughput() {
		t.Errorf("accepted load %v != %v", back.AcceptedLoad, res.Throughput())
	}
	if back.AvgLatency != res.AvgLatency() {
		t.Error("latency mismatch")
	}
	if len(back.Injections) != len(res.RouterInjected) {
		t.Errorf("injection vector length %d", len(back.Injections))
	}
	if back.P99Latency < back.P50Latency {
		t.Error("quantiles out of order")
	}
}

func TestSanitizeInf(t *testing.T) {
	if sanitize(1e301) != -1 {
		t.Error("infinity not sanitized")
	}
	if sanitize(2.5) != 2.5 {
		t.Error("finite value mangled")
	}
}

// Workload runs carry per-job records; single-workload runs omit them.
func TestWorkloadJSONJobs(t *testing.T) {
	if got := newResultJSON(runSmall(t)); len(got.Jobs) != 0 {
		t.Fatalf("single-workload run emitted %d job records", len(got.Jobs))
	}

	cfg := sim.DefaultConfig()
	cfg.Load = 0.3
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 800
	wl, err := workload.Compile(topology.New(cfg.Topology), workload.Spec{Jobs: []workload.JobSpec{
		{Name: "a", Nodes: 8}, {Name: "b", Nodes: 8, Alloc: workload.AllocSpread},
	}}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	out := NewWorkloadJSON(res, []float64{1.25, 0.75})
	if len(out.Jobs) != 2 {
		t.Fatalf("%d job records", len(out.Jobs))
	}
	for j, rec := range out.Jobs {
		if rec.Name != res.JobNames[j] || rec.Nodes != res.JobNodes[j] {
			t.Errorf("job %d identity %+v", j, rec)
		}
		if rec.Delivered != res.JobTotal(j).Delivered || rec.AvgLatency != res.JobAvgLatency(j) {
			t.Errorf("job %d metrics %+v", j, rec)
		}
	}
	if out.Jobs[0].Interference != 1.25 || out.Jobs[1].Interference != 0.75 {
		t.Error("interference ratios not attached")
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal(data, &back); err != nil || len(back.Jobs) != 2 {
		t.Fatalf("round trip: %v, %d jobs", err, len(back.Jobs))
	}

	// JobTable renders the same records as text.
	tbl := JobTable(res, []float64{1.25, 0.75}).String()
	for _, want := range []string{"a", "b", "Interf", "1.25"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("job table lacks %q:\n%s", want, tbl)
		}
	}
}

// stopAt is a sim.finisher that ends the run after cycle at.
type stopAt int64

func (s stopAt) NextEvent(now int64) int64 {
	if now < int64(s) {
		return int64(s)
	}
	return -1
}
func (stopAt) Apply(*sim.Reconfig, int64) {}
func (s stopAt) Finished(now int64) bool  { return now >= int64(s) }

// A run stopped inside its first batch-means span has no confidence
// interval; the JSON carries that as -1, not as a half-width, and still
// encodes.
func TestStoppedRunJSONHasNoInterval(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Load = 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 1<<40
	net, err := sim.NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNetworkWithController(net, &cfg, stopAt(699)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteResultJSON(&sb, sim.NewResultFrom(net, &cfg, 0)); err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.MeasuredCycles != 600 || back.AcceptedLoad <= 0 || back.AcceptedCI95 != -1 {
		t.Errorf("stopped run: %d cycles, accepted %v ± %v; want 600 cycles, a load and no interval (-1)",
			back.MeasuredCycles, back.AcceptedLoad, back.AcceptedCI95)
	}
}
