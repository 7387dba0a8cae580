package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dragonfly/internal/cli"
)

// Two spellings of the same sweep must normalize to the same spec and
// the same fingerprint — the dedup key the serve store relies on.
func TestSpecFingerprintConvergesSpellings(t *testing.T) {
	explicit := Spec{
		Mechanisms: []string{"MIN"},
		Loads:      []float64{0.1, 0.2, 0.3},
		Seeds:      []uint64{1, 2, 3},
	}
	spelled := Spec{
		Mechanisms: []string{"MIN"},
		LoadSpec:   "0.1:0.3:0.1",
		SeedBase:   1,
		SeedCount:  3,
	}
	fp1, err := explicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := spelled.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("spellings diverge: %s vs %s", fp1, fp2)
	}
	// Defaults spelled out explicitly, and names in a different case,
	// converge too.
	verbose := Spec{
		Kind:       "sweep",
		Base:       cli.Base{H: 3, Arbitration: "transit-priority"},
		Mechanisms: []string{"min"},
		Patterns:   []string{"un"},
		Loads:      []float64{0.1, 0.2, 0.3},
		Seeds:      []uint64{1, 2, 3},
	}
	fp3, err := verbose.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Fatalf("explicit defaults diverge: %s vs %s", fp3, fp1)
	}
}

// A genuinely different sweep must not collide.
func TestSpecFingerprintSeparates(t *testing.T) {
	a := Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}}
	b := Spec{Mechanisms: []string{"Obl-RRG"}, Loads: []float64{0.1}}
	fpA, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("different mechanisms share a fingerprint")
	}
}

// BaseFingerprint ignores the grid axes and the bit-identical knobs
// (engine workers, construct reuse) but tracks everything that changes a
// point's result.
func TestSpecBaseFingerprint(t *testing.T) {
	base := Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}}
	bfp, err := base.BaseFingerprint()
	if err != nil {
		t.Fatal(err)
	}

	same := []Spec{
		{Mechanisms: []string{"Obl-RRG", "MIN"}, Loads: []float64{0.3, 0.4}, Seeds: []uint64{7}},
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{SimWorkers: 4}},
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Reuse: "off"},
	}
	for i, s := range same {
		got, err := s.BaseFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != bfp {
			t.Fatalf("spec %d should share the base fingerprint", i)
		}
	}

	different := []Spec{
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{H: 4}},
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Warmup: 500}},
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Arbitration: "round-robin"}},
		{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Threshold: 0.5}},
	}
	for i, s := range different {
		got, err := s.BaseFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got == bfp {
			t.Fatalf("spec %d must not share the base fingerprint", i)
		}
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no mechanisms", Spec{Loads: []float64{0.1}}, "mechanisms"},
		{"no loads", Spec{Mechanisms: []string{"MIN"}}, "loads"},
		{"unknown mechanism", Spec{Mechanisms: []string{"teleport"}, Loads: []float64{0.1}}, "teleport"},
		{"unknown pattern", Spec{Mechanisms: []string{"MIN"}, Patterns: []string{"XX"}, Loads: []float64{0.1}}, "XX"},
		{"unknown kind", Spec{Kind: "schedule", Mechanisms: []string{"MIN"}, Loads: []float64{0.1}}, "kind"},
		{"unknown arbitration", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Arbitration: "coin-flip"}}, "arbitration"},
		{"warm reuse", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Reuse: "warm"}, "reuse"},
		{"both load spellings", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, LoadSpec: "0.1:0.2:0.1"}, "not both"},
		{"negative load", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{-0.1}}, "negative"},
		{"bad arrangement", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Arrangement: "spiral"}}, "arrangement"},
		{"threshold past 1", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{H: 1, Threshold: 1.5}}, "threshold"},
		{"negative injection queue", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{InjQueue: -3}}, "injection queue"},
		{"cycle count overflows", Spec{Mechanisms: []string{"MIN"}, Loads: []float64{0.1}, Base: cli.Base{Warmup: math.MaxInt64, Measure: 1}}, "overflow"},
	}
	for _, tc := range cases {
		s := tc.spec
		err := s.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: unhelpful error: %v", tc.name, err)
		}
	}
}

// Grid expansion honors the normalized axes, and the grid's base config
// reflects the spec's knobs.
func TestSpecGrid(t *testing.T) {
	s := Spec{
		Mechanisms: []string{"MIN", "Obl-RRG"},
		LoadSpec:   "0.1:0.2:0.1",
		SeedCount:  2,
		Base:       cli.Base{Warmup: 100, Measure: 200},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Points()); got != 2*1*2*2 {
		t.Fatalf("grid has %d points", got)
	}
	if g.Base.WarmupCycles != 100 || g.Base.MeasureCycles != 200 {
		t.Fatalf("base config cycles = %d/%d", g.Base.WarmupCycles, g.Base.MeasureCycles)
	}
	if g.Snapshots == nil {
		t.Fatal("construct reuse (the default) did not attach a snapshot cache")
	}
	// Each Grid() call builds a fresh cache: concurrent runners must not
	// share mutable state through the spec.
	g2, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Snapshots == g2.Snapshots {
		t.Fatal("Grid() calls share a snapshot cache")
	}
}

// Normalization is idempotent: a canonical spec round-trips to the same
// fingerprint.
func TestSpecNormalizeIdempotent(t *testing.T) {
	s := Spec{Mechanisms: []string{"MIN"}, LoadSpec: "0.1:0.2:0.1", SeedCount: 2}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	fp1, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	fp2, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("normalization is not idempotent")
	}
}

// The identities the serve store keys jobs and checkpoints by, and the JSON
// it journals and hands to workers, are an on-disk and on-the-wire format:
// a store written by an earlier build must still dedup and restore. These
// literals were recorded before Spec was split into cli.Base + axes.
func TestSpecIdentitiesPinned(t *testing.T) {
	for _, c := range []struct{ name, raw, fp, baseFP, canonical string }{
		{"minimal", `{"mechanisms":["MIN"],"loads":[0.1]}`,
			"dddd1b10845898ac1724efb7c35d3c47", "ef196acff51de83e5707ff506323fbbb",
			`{"kind":"sweep","h":3,"p":3,"a":6,"arrangement":"palmtree","warmup":3000,"measure":6000,"sim_workers":1,"arbitration":"transit-priority","inj_queue":256,"threshold":0.43,"olm":true,"local_lat":10,"global_lat":100,"latency_model":"uniform","mechanisms":["min"],"patterns":["UN"],"loads":[0.1],"seeds":[1],"reuse":"construct"}`},
		{"every field", `{"kind":"sweep","h":2,"p":3,"a":5,"arrangement":"consecutive","warmup":150,"measure":450,"sim_workers":2,"arbitration":"age","inj_queue":64,"threshold":0.35,"olm":false,"local_lat":5,"global_lat":40,"latency_model":"groupskew","mechanisms":["Src-CRG","In-Trns-MM"],"patterns":["ADV+1","UN"],"loads":[0.2,0.45],"seeds":[3,9],"reuse":"off"}`,
			"fd7dadc871f22bebd4c418940a1cf39c", "9634a017b0bc51038d1e013dfc16944a",
			`{"kind":"sweep","h":2,"p":3,"a":5,"arrangement":"consecutive","warmup":150,"measure":450,"sim_workers":2,"arbitration":"age","inj_queue":64,"threshold":0.35,"olm":false,"local_lat":5,"global_lat":40,"latency_model":"groupskew","mechanisms":["src-crg","in-trns-mm"],"patterns":["ADV+1","UN"],"loads":[0.2,0.45],"seeds":[3,9],"reuse":"off"}`},
		{"load_spec + seed_base", `{"h":1,"warmup":100,"measure":200,"mechanisms":["min"],"load_spec":"0.1:0.2:0.1","seed_base":1,"seed_count":2}`,
			"3727aded5fe3c3b291707b1fbb3bce95", "9072012aad206342a972a4f08ba22f35",
			`{"kind":"sweep","h":1,"p":1,"a":2,"arrangement":"palmtree","warmup":100,"measure":200,"sim_workers":1,"arbitration":"transit-priority","inj_queue":256,"threshold":0.43,"olm":true,"local_lat":10,"global_lat":100,"latency_model":"uniform","mechanisms":["min"],"patterns":["UN"],"loads":[0.1,0.2],"seeds":[1,2],"reuse":"construct"}`},
	} {
		var s Spec
		if err := json.Unmarshal([]byte(c.raw), &s); err != nil {
			t.Fatal(err)
		}
		fp, err1 := s.Fingerprint()
		baseFP, err2 := s.BaseFingerprint()
		canonical, err3 := s.CanonicalJSON()
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: %v, %v, %v", c.name, err1, err2, err3)
		}
		if fp != c.fp {
			t.Errorf("%s: fingerprint %s, pinned %s", c.name, fp, c.fp)
		}
		if baseFP != c.baseFP {
			t.Errorf("%s: base fingerprint %s, pinned %s", c.name, baseFP, c.baseFP)
		}
		if string(canonical) != c.canonical {
			t.Errorf("%s: canonical JSON\n%s\npinned\n%s", c.name, canonical, c.canonical)
		}
	}
}
