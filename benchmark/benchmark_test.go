package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// miniSizes is every workload at a scale the whole suite runs in seconds:
// h=3, a couple of thousand cycles, twelve-point jobs, a 2,000-job trace, two
// rounds. Job and point counts per run stay at full size so the percentiles
// keep their samples.
func miniSizes() sizes {
	sz := fullSizes(1)
	sz.H = 3
	sz.RunRounds, sz.SweepRounds, sz.SchedRounds = 2, 2, 2
	sz.SatWarm, sz.SatMeasure = 300, 1200
	sz.LightWarm, sz.LightMeasure = 300, 1200
	sz.RestoreReps = 2
	sz.SweepWarm, sz.SweepMeasure = 20, 40
	sz.ServeWarm, sz.ServeMeasure = 10, 20
	sz.ServeLoads, sz.ServeSeeds = 3, 3
	sz.SchedJobs = 2000
	return sz
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloads runs every workload and its traced twin at miniature scale
// and checks what the command promises: no failed operation (which covers
// traced digest == untraced digest, Workers=1 == Workers=2, and
// points_leased flat across the cache hits), every declared metric emitted
// once where it applies, and the contract's JSON line complete.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			digests := make(map[bool]string)
			for _, traced := range []bool{false, true} {
				o := options{seed: 1, traced: traced, workdir: t.TempDir(), out: t.TempDir()}
				res, err := runWorkload(w, o, miniSizes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("traced=%v: %d of %d operations failed:\n%s", traced, res.Failed, res.Attempted, strings.Join(res.Failures, "\n"))
				}
				digests[traced] = res.Digest

				got := make(map[string]int)
				for _, m := range res.Metrics {
					got[m.Name]++
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is not a legal name", m.Name)
					}
				}
				for _, d := range catalog {
					want := 0
					if d.appliesTo(w.Name) && (traced || d.endToEnd() || d.Untraced) {
						want = 1
					}
					if got[d.Name] != want {
						t.Errorf("traced=%v: %s emitted %d times, want %d", traced, d.Name, got[d.Name], want)
					}
				}

				var out bytes.Buffer
				if err := emit(&out, res, o); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line struct {
					Correct   *bool                      `json:"correct"`
					Attempted int64                      `json:"attempted"`
					Failed    *int64                     `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("last line is not the contract's object: %v", err)
				}
				if line.Correct == nil || line.Failed == nil || line.Attempted < 1 {
					t.Errorf("last line lacks correct/attempted/failed: %s", lines[len(lines)-1])
				}
				for _, d := range catalog {
					_, ok := line.Metrics[d.Name]
					if ok != (d.endToEnd() != traced) {
						t.Errorf("traced=%v: contract line has %s = %v", traced, d.Name, ok)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(o.out, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
				if left, _ := os.ReadDir(o.workdir); len(left) != 0 {
					t.Errorf("work directory not removed: %d entries left", len(left))
				}
			}
			if digests[false] != digests[true] || digests[false] == "" {
				t.Errorf("untraced digest %q, traced digest %q", digests[false], digests[true])
			}
		})
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's catalog in
// step, and inside the limits a benchmark file must respect.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}

	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	better := func(d metricDef) string {
		if d.Higher {
			return "higher"
		}
		return "lower"
	}
	e, p := 0, 0
	for _, d := range catalog {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s (%s): illegal name or unit", d.Name, d.Unit)
		}
		if d.endToEnd() {
			if e >= len(b.EndToEnd) {
				t.Fatalf("end_to_end lacks %s", d.Name)
			}
			if got := b.EndToEnd[e]; got.Name != d.Name || got.Unit != d.Unit || got.Bound != d.Bound || got.Better != better(d) {
				t.Errorf("end_to_end[%d] = %+v, the catalog has %+v", e, got, d)
			}
			e++
		} else {
			if p >= len(b.PerLayer) {
				t.Fatalf("per_layer lacks %s", d.Name)
			}
			if got := b.PerLayer[p]; got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d) {
				t.Errorf("per_layer[%d] = %+v, the catalog has %+v", p, got, d)
			}
			p++
		}
	}
	if e != len(b.EndToEnd) || p != len(b.PerLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the catalog %d+%d", len(b.EndToEnd), len(b.PerLayer), e, p)
	}
	if p > 128 || e > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", e, p)
	}
}

// TestGolden checks golden.json names only known workloads.
func TestGolden(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := golden[goldenKey(w.Name, 1, defaultSeconds)]; !ok {
			t.Errorf("golden.json has no digest for %s at seed 1", w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 75); err != nil || v != 36 {
		t.Errorf("p75 of 1..48 = %v, %v; want 36", v, err)
	}
	// p75 of 48 has 12 samples beyond it; p80 would have 9, p50 of 19 too.
	if _, err := percentile(xs, 80); err == nil {
		t.Error("p80 of 48 samples was not refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of nothing was not refused")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1 2 4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "x", "-trace=true", "--seed", "3", "-trace=false", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// TestCompare builds result sets by hand and checks each verdict.
func TestCompare(t *testing.T) {
	write := func(dir string, seed uint64, wall, steps float64) {
		r := result{Workload: wlSat, Seed: seed, Seconds: 1, Correct: true, Attempted: 1, Digest: "d", Metrics: []metricValue{
			{Name: "wall_s", Value: wall, Unit: "s"},
			{Name: "router.steps", Value: steps, Unit: "count", Exact: true},
		}}
		data, _ := json.Marshal(r)
		name := "result-" + wlSat + "-seed" + string(rune('0'+seed)) + "-trace0.json"
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set := func(walls []float64, steps float64) string {
		dir := t.TempDir()
		for i, w := range walls {
			write(dir, uint64(i+1), w, steps)
		}
		return dir
	}
	base := set([]float64{10, 10.1, 9.9, 10, 10.05}, 100)
	for _, tc := range []struct {
		name    string
		other   string
		ok      bool
		verdict string
	}{
		{"same", set([]float64{10.2, 10.1, 10, 10.1, 10.3}, 100), true, " ok"},
		{"slower", set([]float64{13, 13.1, 12.9, 13, 13.2}, 100), false, "regressed"},
		{"noisy", set([]float64{7, 13, 8, 12, 10}, 100), true, "unresolved"},
		{"counter moved", set([]float64{10, 10, 10, 10, 10}, 101), false, "exact mismatch"},
	} {
		var out bytes.Buffer
		ok, err := compareSets(&out, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", tc.name, ok, tc.ok, tc.verdict, out.String())
		}
	}
}
