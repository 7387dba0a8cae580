package sim_test

import (
	"reflect"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// The keys a configuration's identity is read through.
type keySet uint8

const (
	fingerprint keySet = 1 << iota // Config.Fingerprint
	template                       // TemplateKey
	family                         // FamilyOf
)

// identityFields maps every leaf field of sim.Config that decides what a run
// computes to the keys it is part of. Every one of them is in the whole
// identity (sim.Identity) too.
var identityFields = map[string]keySet{
	"Topology.P":           fingerprint | template | family,
	"Topology.A":           fingerprint | template | family,
	"Topology.H":           fingerprint | template | family,
	"Topology.Arrangement": fingerprint | template | family,
	"Mechanism":            template,
	"Pattern":              template,
	"Load":                 0, // a construction template restores at any load
	"WarmupCycles":         fingerprint,
	"MeasureCycles":        fingerprint,
	"Seed":                 template | family,
	"LatencyModel":         fingerprint | template | family,

	"Router.InjectionQueuePackets": fingerprint | template,
	"Router.Arbitration":           fingerprint | template,
	"Router.CongestionThreshold":   fingerprint | template,

	"Routing.LocalMisroute": fingerprint | template,
}

// notIdentity lists the leaf fields no key may read, each with its reason.
var notIdentity = map[string]string{
	"Workers": "results are bit-identical across the worker count",
	"Probes":  "an observer: results are bit-identical with probes on or off",
	"Tracer":  "an observer: results are bit-identical with a tracer on or off",
}

// Every leaf field of sim.Config (the nested topology, router and routing
// parameters walked field by field) is an identity field or a declared
// exclusion, and setting it to a non-default value changes exactly the keys
// the tables above name: a field added to any of the four structs fails
// here until it is declared, and a key that drops or gains a field fails
// here too. A construction template restores under the changed
// configuration exactly when its TemplateKey is unchanged.
func TestIdentityCoversEveryField(t *testing.T) {
	base := sim.DefaultConfig()
	snap, err := sim.NewSnapshot(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(c *sim.Config) [4]string {
		return [4]string{c.Fingerprint(), sim.TemplateKey(c), sim.FamilyOf(c), sim.Identity(c)}
	}
	names := [4]string{"Fingerprint", "TemplateKey", "FamilyOf", "identity"}
	want0 := keys(&base)
	seen := make(map[string]bool)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			if !sf.IsExported() {
				t.Errorf("%s%s is unexported: a configuration holds only inputs", path, sf.Name)
				continue
			}
			name := path + sf.Name
			if f.Kind() == reflect.Struct {
				walk(f, name+".")
				continue
			}
			seen[name] = true
			in, isID := identityFields[name]
			if _, excluded := notIdentity[name]; excluded == isID {
				t.Errorf("sim.Config field %s is in neither or both of identityFields and notIdentity", name)
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			setNonDefault(t, f, name)
			if reflect.DeepEqual(f.Interface(), old.Interface()) {
				t.Fatalf("%s: setNonDefault left the default", name)
			}
			got := keys(&base)
			_, err := sim.RestoreNetwork(snap, &base)
			f.Set(old)
			if restored, want := err == nil, got[1] == want0[1]; restored != want {
				t.Errorf("setting %s: the template restores: %v, want %v (%v)", name, restored, want, err)
			}
			for k := range got {
				want := isID && (k == 3 || in&(1<<k) != 0)
				if changed := got[k] != want0[k]; changed != want {
					t.Errorf("setting %s changes %s: %v, want %v", name, names[k], changed, want)
				}
			}
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "")
	for name := range identityFields {
		if !seen[name] {
			t.Errorf("identityFields names %s, which sim.Config does not have", name)
		}
	}
	for name := range notIdentity {
		if !seen[name] {
			t.Errorf("notIdentity names %s, which sim.Config does not have", name)
		}
	}
}

// setNonDefault gives the settable leaf field v a value it does not have.
func setNonDefault(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		x, ok := nonScalar[v.Type()]
		if !ok {
			t.Fatalf("%s: no non-default value for type %s", name, v.Type())
		}
		v.Set(reflect.ValueOf(x))
	}
}

// nonScalar holds a non-default value for each field type no arithmetic
// can change.
var nonScalar = map[reflect.Type]any{
	reflect.TypeFor[topology.LatencyModel](): topology.GroupSkewLatency{Local: 3, GlobalBase: 11, GlobalStep: 2},
	reflect.TypeFor[*telemetry.Probes]():     telemetry.NewProbes(telemetry.ProbeConfig{Every: 100}),
	reflect.TypeFor[*telemetry.Tracer]():     telemetry.NewTracer(sim.DefaultConfig().Topology.Routers(), 1, 8),
}

// One latency-model rule for every key: two models of one name that differ
// in a parameter are two configurations — two fingerprints, two families,
// two templates.
func TestLatencyModelIdentity(t *testing.T) {
	base := sim.DefaultConfig()
	base.Mechanism, base.Pattern, base.Load = "In-Trns-MM", "ADVc", 0.4
	base.WarmupCycles, base.MeasureCycles = 100, 300
	t.Run("groupskew steps", func(t *testing.T) {
		a, b := base, base
		a.LatencyModel = topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 10}
		b.LatencyModel = topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 20}
		for _, k := range []struct {
			name string
			key  func(*sim.Config) string
		}{
			{"Fingerprint", (*sim.Config).Fingerprint},
			{"TemplateKey", sim.TemplateKey},
			{"FamilyOf", sim.FamilyOf},
		} {
			if ka, kb := k.key(&a), k.key(&b); ka == kb {
				t.Errorf("%s equal:\n%s\n%s", k.name, ka, kb)
			}
		}
		cache := &sweep.SnapshotCache{}
		for _, cfg := range []sim.Config{a, b} {
			g := sweep.Grid{Base: cfg, Snapshots: cache}
			s := g.RunPoint(sweep.Point{Mechanism: cfg.Mechanism, Pattern: cfg.Pattern, Load: cfg.Load, Seed: cfg.Seed})
			if s.Err != nil {
				t.Fatal(s.Err)
			}
			if s.Result.Delivered() == 0 {
				t.Fatal("the point delivered nothing")
			}
		}
		if got := cache.Stats().Templates; got != 2 {
			t.Errorf("the cache built %d templates, want 2", got)
		}
	})
}
