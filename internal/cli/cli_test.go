package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

func TestParseLoadsList(t *testing.T) {
	loads, err := ParseLoads("0.1, 0.2,0.35")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.2, 0.35}
	if len(loads) != len(want) {
		t.Fatalf("got %v", loads)
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("loads[%d] = %v, want %v", i, loads[i], want[i])
		}
	}
}

func TestParseLoadsRange(t *testing.T) {
	loads, err := ParseLoads("0.1:0.5:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 5 {
		t.Fatalf("got %d loads: %v", len(loads), loads)
	}
	if math.Abs(loads[4]-0.5) > 1e-9 {
		t.Errorf("last load %v, want 0.5", loads[4])
	}

	// The tools' default ranges and the served benchmark's 0.05:%g:0.05 are
	// expanded by repeated addition; spec fingerprints and digests ride on
	// these exact bits, so a bound on the expansion must not change them.
	for spec, n := range map[string]int{"0.05:0.6:0.05": 12, "0.05:1.0:0.05": 20, "0.05:0.5:0.05": 10} {
		loads, err := ParseLoads(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		var want []float64
		for l := 0.05; len(want) < n; l += 0.05 {
			want = append(want, l)
		}
		if !reflect.DeepEqual(loads, want) {
			t.Errorf("%s = %v, want the accumulated %v", spec, loads, want)
		}
	}
}

func TestParseLoadsErrors(t *testing.T) {
	for _, bad := range []string{
		"x", "0.1:0.5", "0.1:0.5:0", "0.1:0.5:-1", "a:b:c", "0.1,,x",
		"0:Inf:0.1", "0:inf:0.1", "NaN:1:0.1", "0:1:NaN", "0:1:Inf", "-0.1:0.5:0.1", "0.5:0.1:0.1",
		"1:2:1e-20", "0:1000:0.5", "NaN,0.1", "0.1,+Inf", "-0.1",
	} {
		done := make(chan error, 1)
		go func() { _, err := ParseLoads(bad); done <- err }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("ParseLoads(%q) accepted", bad)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ParseLoads(%q) did not return", bad)
		}
	}
	if loads, err := ParseLoads("0:999.5:1"); err != nil || len(loads) != maxLoads {
		t.Errorf("a range of exactly MaxLoads loads: %d loads, %v", len(loads), err)
	}
}

func TestParseSeeds(t *testing.T) {
	seeds, err := ParseSeeds(10, 3)
	if err != nil || len(seeds) != 3 || seeds[0] != 10 || seeds[2] != 12 {
		t.Errorf("seeds = %v, %v", seeds, err)
	}
	for _, n := range []int{-1, 0, maxSeeds + 1, 1e12} {
		if seeds, err := ParseSeeds(1, n); err == nil {
			t.Errorf("ParseSeeds(1, %d) accepted: %d seeds", n, len(seeds))
		}
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,, c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SplitList = %v", got)
	}
}

func TestBaseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != topology.Balanced(3) {
		t.Errorf("default topology %+v", cfg.Topology)
	}
	if cfg.Router.Arbitration != router.TransitOverInjection {
		t.Errorf("default arbitration %v, want priority", cfg.Router.Arbitration)
	}
}

func TestBaseFlagsFull(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse([]string{"-full", "-priority=false"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Nodes() != 5256 {
		t.Errorf("full topology has %d nodes", cfg.Topology.Nodes())
	}
	if cfg.MeasureCycles != 15000 {
		t.Errorf("full measure cycles %d", cfg.MeasureCycles)
	}
	if cfg.Router.Arbitration != router.RoundRobin {
		t.Errorf("arbitration %v, want round-robin", cfg.Router.Arbitration)
	}
}

func TestBaseFlagsOverrides(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse([]string{"-h", "2", "-p", "4", "-a", "5", "-age",
		"-arrangement", "consecutive", "-threshold", "0.5", "-olm=false"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.P != 4 || cfg.Topology.A != 5 || cfg.Topology.H != 2 {
		t.Errorf("topology %+v", cfg.Topology)
	}
	if cfg.Topology.Arrangement != topology.Consecutive {
		t.Error("arrangement flag ignored")
	}
	if cfg.Router.Arbitration != router.AgeBased {
		t.Error("-age ignored")
	}
	if cfg.Router.CongestionThreshold != 0.5 || cfg.Routing.LocalMisroute {
		t.Error("threshold/olm flags ignored")
	}
}

func TestValidateNames(t *testing.T) {
	topo := topology.Balanced(2) // 9 groups
	ok := [][2][]string{
		{{"MIN", "In-Trns-MM"}, {"UN", "ADV+1", "ADVc"}},
		{{"src-rrg"}, {"advc2", "PERM"}},
		{{}, {}},
	}
	for _, c := range ok {
		if err := validateNames(topo, c[0], c[1]); err != nil {
			t.Errorf("ValidateNames(%v, %v) = %v", c[0], c[1], err)
		}
	}
}

func TestValidateNamesRejectsTyposWithKnownList(t *testing.T) {
	topo := topology.Balanced(2)
	if err := validateNames(topo, []string{"In-Trans-MM"}, nil); err == nil {
		t.Error("typo mechanism accepted")
	} else if !strings.Contains(err.Error(), "in-trns-mm") {
		t.Errorf("mechanism error does not list registered names: %v", err)
	}
	if err := validateNames(topo, nil, []string{"UNFORM"}); err == nil {
		t.Error("typo pattern accepted")
	} else if !strings.Contains(err.Error(), "ADVc") {
		t.Errorf("pattern error does not list known names: %v", err)
	}
	// Out-of-range parameters are caught against the topology, as errors
	// rather than the constructors' panics.
	if err := validateNames(topo, nil, []string{"ADV+40"}); err == nil {
		t.Error("out-of-range ADV offset accepted for a 9-group network")
	}
	if err := validateNames(topo, nil, []string{"ADVc30"}); err == nil {
		t.Error("out-of-range ADVc group count accepted")
	}
}

func TestBaseFlagsLatency(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse([]string{"-local-lat", "7", "-global-lat", "210", "-latency-model", "groupskew"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := cfg.LatencyModel.(topology.GroupSkewLatency)
	if !ok {
		t.Fatalf("latency model %#v, want groupskew", cfg.LatencyModel)
	}
	if m.Local != 7 || m.GlobalBase != 210 {
		t.Errorf("groupskew not built from the latency flags: %+v", m)
	}
}

func TestBaseFlagsLatencyDefaultsUniform(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := cfg.LatencyModel.(topology.UniformLatency); !ok || m.Local != 10 || m.Global != 100 {
		t.Errorf("default latency model %#v, want uniform Table I", cfg.LatencyModel)
	}
}

// Latency mistakes are rejected at flag time, like mechanism and pattern
// typos, with the known model names listed.
func TestBaseFlagsLatencyErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-local-lat", "0"},
		{"-global-lat", "-5"},
		{"-latency-model", "spiral"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		build := new(Base).Flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := build(nil, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse([]string{"-latency-model", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := build(nil, nil); err == nil || !strings.Contains(err.Error(), "groupskew") {
		t.Errorf("latency model error does not list known models: %v", err)
	}
}

func TestBaseFlagsBadArrangement(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse([]string{"-arrangement", "spiral"}); err != nil {
		t.Fatal(err)
	}
	if _, err := build(nil, nil); err == nil {
		t.Error("bad arrangement accepted")
	}
}

// flagConfig parses args through Base.Flags and builds the config.
func flagConfig(t *testing.T, args ...string) (sim.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	build := new(Base).Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return build(nil, nil)
}

// The switches without a field of their own fold into the description the
// way the tools always resolved them.
func TestBaseFlagsFolding(t *testing.T) {
	// An explicit zero is a value, not "use the default": that rule belongs
	// to descriptions read from JSON only.
	cfg, err := flagConfig(t, "-warmup", "0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WarmupCycles != 0 || cfg.MeasureCycles != 6000 {
		t.Errorf("-warmup 0 gave warmup %d, measure %d; want 0, 6000", cfg.WarmupCycles, cfg.MeasureCycles)
	}

	cfg, err = flagConfig(t, "-full", "-h", "2", "-p", "1", "-warmup", "7", "-measure", "9", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	paper := sim.PaperConfig()
	if cfg.Topology != paper.Topology || cfg.WarmupCycles != paper.WarmupCycles || cfg.MeasureCycles != paper.MeasureCycles {
		t.Errorf("-full did not override -h/-p/-warmup/-measure: %v, %d+%d cycles", cfg.Topology, cfg.WarmupCycles, cfg.MeasureCycles)
	}
	if cfg.Seed != 5 {
		t.Errorf("-seed 5 gave seed %d", cfg.Seed)
	}

	cfg, err = flagConfig(t, "-age", "-priority=false")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Router.Arbitration != router.AgeBased {
		t.Errorf("-age -priority=false gave %v, want age", cfg.Router.Arbitration)
	}
}

// Flags and the equivalent JSON are two spellings of one description: they
// must assemble the same config, field for field.
func TestBaseFlagsMatchJSON(t *testing.T) {
	for _, c := range []struct {
		args []string
		json string
	}{
		{nil, `{}`},
		{[]string{"-h", "2", "-p", "3", "-a", "5", "-arrangement", "consecutive", "-warmup", "150", "-measure", "450",
			"-workers", "2", "-age", "-inj-queue", "64", "-threshold", "0.35", "-olm=false",
			"-local-lat", "5", "-global-lat", "40", "-latency-model", "groupskew"},
			`{"h":2,"p":3,"a":5,"arrangement":"consecutive","warmup":150,"measure":450,"sim_workers":2,
			  "arbitration":"age","inj_queue":64,"threshold":0.35,"olm":false,"local_lat":5,"global_lat":40,
			  "latency_model":"groupskew"}`},
		{[]string{"-priority=false", "-h", "4"}, `{"arbitration":"round-robin","h":4}`},
	} {
		fromFlags, err := flagConfig(t, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		var b Base
		if err := json.Unmarshal([]byte(c.json), &b); err != nil {
			t.Fatal(err)
		}
		if err := b.Normalize(nil, nil); err != nil {
			t.Fatal(err)
		}
		fromJSON, err := b.Config()
		if err != nil {
			t.Fatal(err)
		}
		// The latency models are plain values, so DeepEqual covers them.
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("args %v: config differs from its JSON spelling:\nflags: %+v\njson:  %+v", c.args, fromFlags, fromJSON)
		}
	}
}

// A network the engine cannot index is refused from the parameters alone —
// nothing is built first (building either of these would not finish) — and
// flags and JSON say so in the same words.
func TestBaseRejectsOversizedTopology(t *testing.T) {
	for _, c := range []struct {
		args []string
		json string
	}{
		{[]string{"-h", "64"}, `{"h":64}`},
		{[]string{"-h", "1", "-a", "2000000"}, `{"h":1,"a":2000000}`},
	} {
		_, flagErr := flagConfig(t, c.args...)
		var b Base
		if err := json.Unmarshal([]byte(c.json), &b); err != nil {
			t.Fatal(err)
		}
		jsonErr := b.Normalize(nil, nil)
		if flagErr == nil || jsonErr == nil {
			t.Fatalf("%s accepted (flags: %v, JSON: %v)", c.json, flagErr, jsonErr)
		}
		if flagErr.Error() != jsonErr.Error() || !strings.Contains(flagErr.Error(), "routers") {
			t.Errorf("%s: flags say %q, JSON says %q", c.json, flagErr, jsonErr)
		}
	}
	if err := topology.Balanced(63).Validate(); err != nil {
		t.Errorf("h=63 (1,000,314 routers) refused: %v", err)
	}
}

// A description no point can run is refused where it is read — flags and
// JSON in the same words (sim.Config.Validate) — instead of every point of
// the sweep failing or recording zeros.
func TestBaseRejectsUnrunnableConfig(t *testing.T) {
	for _, c := range []struct {
		args       []string
		json, want string
	}{
		{[]string{"-h", "1", "-threshold", "1.5"}, `{"h":1,"threshold":1.5}`, "threshold"},
		{[]string{"-inj-queue", "-3"}, `{"inj_queue":-3}`, "injection queue"},
		{[]string{"-global-lat", "-5"}, `{"global_lat":-5}`, "latencies"},
		{[]string{"-warmup", "9223372036854775807", "-measure", "1"}, `{"warmup":9223372036854775807,"measure":1}`, "overflow"},
		// Values the core stores in 32 bits, or a packet's node ids could not hold.
		{[]string{"-global-lat", "2147483648"}, `{"global_lat":2147483648}`, "at most 2147483647 cycles"},
		{[]string{"-local-lat", "2147483648"}, `{"local_lat":2147483648}`, "at most 2147483647 cycles"},
		{[]string{"-inj-queue", "2147483648"}, `{"inj_queue":2147483648}`, "injection queue of 2147483648 packets exceeds 2147483647 phits"},
		{[]string{"-h", "2", "-p", "1073741824"}, `{"h":2,"p":1073741824}`, "supported 2147483647 nodes"},
	} {
		_, flagErr := flagConfig(t, c.args...)
		var b Base
		if err := json.Unmarshal([]byte(c.json), &b); err != nil {
			t.Fatal(err)
		}
		jsonErr := b.Normalize(nil, nil)
		if flagErr == nil || jsonErr == nil {
			t.Fatalf("%s accepted (flags: %v, JSON: %v)", c.json, flagErr, jsonErr)
		}
		if flagErr.Error() != jsonErr.Error() || !strings.Contains(flagErr.Error(), c.want) {
			t.Errorf("%s: flags say %q, JSON says %q, want %q", c.json, flagErr, jsonErr, c.want)
		}
	}
}

// WriteFile writes what write produces, returns write's error over a
// successful close, and reports a file it cannot create.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "a,b\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "a,b\n" {
		t.Fatalf("file holds %q (%v)", data, err)
	}
	failed := errors.New("render failed")
	if err := WriteFile(path, func(io.Writer) error { return failed }); err != failed {
		t.Fatalf("WriteFile returned %v, want the write's error", err)
	}
	if err := WriteFile(filepath.Join(path, "sub"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("WriteFile under a regular file succeeded")
	}
}
