// Package cli holds what the df* executables and dfserved share about
// describing a run: Base (base.go), the one description of a run's fixed
// part — filled from the common simulation flags or from spec JSON, and the
// only code that assembles a sim.Config from either — plus the probe flags
// and the list/range parsers for loads and seeds.
//
// Invariant: user input is validated at flag time, not deep inside the
// first simulation — mechanism and pattern names are checked against
// their registries (with the known names in the error), latencies must be
// positive, and pattern parameters are checked against the selected
// topology (e.g. an ADV offset beyond the group count).
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dragonfly/internal/prof"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// ProbeFlags registers the telemetry probe flags shared by the df* tools
// and returns an attacher that, after flag parsing, wires a probe recorder
// into the config when -probe-every is set. The returned close function
// (never nil on success) releases the probe output file; call it after the
// run, before reading the result.
func ProbeFlags(fs *flag.FlagSet) func(cfg *sim.Config) (func() error, error) {
	every := fs.Int64("probe-every", 0, "sample telemetry probes every N cycles (0 = off)")
	out := fs.String("probe-out", "-", "probe time-series JSONL destination ('-' = stdout)")
	return func(cfg *sim.Config) (func() error, error) {
		noop := func() error { return nil }
		if *every <= 0 {
			return noop, nil
		}
		w := io.Writer(os.Stdout)
		closeFn := noop
		if *out != "-" && *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return nil, err
			}
			w = f
			closeFn = f.Close
		}
		cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: *every, Out: w})
		return closeFn, nil
	}
}

// WriteFile creates path, hands it to write and closes it. It returns the
// first error of the three: a file that fails to close is not written.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ProfileFlags registers the pprof flags shared by the simulating tools,
// -cpuprofile and -memprofile, and returns a starter to call after flag
// parsing: it begins profiling (see prof.Start) and returns the stop
// function, which must run before the process exits.
func ProfileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file")
	return func() (func() error, error) { return prof.Start(*cpu, *mem) }
}

// arbitrationByName resolves an output-arbiter policy by the name its
// String method prints (Base.Arbitration; the -priority/-age flags fold into
// the same names).
func arbitrationByName(name string) (router.Arbitration, error) {
	switch strings.ToLower(name) {
	case "round-robin", "rr":
		return router.RoundRobin, nil
	case "transit-priority", "priority":
		return router.TransitOverInjection, nil
	case "age":
		return router.AgeBased, nil
	default:
		return 0, fmt.Errorf("unknown arbitration %q (known: round-robin, transit-priority, age)", name)
	}
}

// validateNames checks mechanism and pattern names against their
// registries — listing the registered names on a mismatch — so tools
// reject typos at flag time instead of deep inside the first simulation.
// Patterns are checked against the topology, catching out-of-range
// parameters (e.g. an ADV offset beyond the group count) too.
func validateNames(topo topology.Params, mechanisms, patterns []string) error {
	for _, m := range mechanisms {
		if _, err := routing.ByName(m); err != nil {
			return err
		}
	}
	if len(patterns) == 0 {
		return nil
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	t := topology.New(topo)
	for _, p := range patterns {
		if err := traffic.Validate(t, p); err != nil {
			return err
		}
	}
	return nil
}

// maxLoads bounds the loads a range spec expands to (0:1:1e-20 would never
// finish), maxSeeds a seed count (10¹² would be one huge allocation).
const (
	maxLoads = 1000
	maxSeeds = 1000
)

// ParseLoads parses a comma-separated list of loads ("0.1,0.2") or a range
// spec ("0.05:1.0:0.05" = from:to:step, expanded by repeated addition, so
// spec fingerprints keep their bits). Loads are finite and ≥ 0, and a range
// is non-empty and at most maxLoads long.
func ParseLoads(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range spec must be from:to:step, got %q", s)
		}
		from, err1 := strconv.ParseFloat(parts[0], 64)
		to, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || !isLoad(from) || !isLoad(to) || !isLoad(step) || step == 0 {
			return nil, fmt.Errorf("bad range spec %q (want finite values, from ≥ 0 and step > 0)", s)
		}
		var loads []float64
		for l := from; l <= to+1e-9; l += step {
			if len(loads) == maxLoads {
				return nil, fmt.Errorf("range spec %q expands to more than %d loads", s, maxLoads)
			}
			loads = append(loads, l)
		}
		if len(loads) == 0 {
			return nil, fmt.Errorf("range spec %q is empty", s)
		}
		return loads, nil
	}
	var loads []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", f, err)
		}
		if !isLoad(v) {
			return nil, fmt.Errorf("bad load %q: want a finite load ≥ 0", f)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// isLoad reports whether v is finite and ≥ 0 (NaN is not).
func isLoad(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// ParseSeeds expands a seed count into seeds base..base+n-1; the count must
// lie in [1, maxSeeds].
func ParseSeeds(base uint64, n int) ([]uint64, error) {
	if n < 1 || n > maxSeeds {
		return nil, fmt.Errorf("seed count %d outside [1, %d]", n, maxSeeds)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds, nil
}

// SplitList splits a comma-separated list, trimming whitespace.
func SplitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
