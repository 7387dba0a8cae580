package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/cli"
	"dragonfly/internal/sweep"
)

// Spec is the portable JSON description of one sweep submission — the
// wire form a dfserved client POSTs and a worker rebuilds its grid from.
// It mirrors the dfsweep flag surface: the run description every tool
// shares (cli.Base, embedded, so the wire format is flat) plus the
// mechanism × pattern × load × seed axes. Zero fields take the dfsweep
// defaults, so a minimal submission is just mechanisms + loads.
//
// Normalize resolves every default and alternative encoding (load_spec
// strings, seed_base/seed_count) into explicit fields, so two spellings
// of the same sweep normalize to the same struct — and therefore the
// same Fingerprint, which is what the serve job store dedups by.
type Spec struct {
	// Kind is the submission type; "sweep" is the default and the only
	// kind served today (experiment/schedule specs are future work).
	Kind string `json:"kind,omitempty"`

	// Base is everything that shapes one point's result, plus SimWorkers,
	// which BaseFingerprint excludes.
	cli.Base

	// The sweep axes. Loads may instead be given as LoadSpec
	// ("0.05:0.6:0.05", the dfsweep -loads syntax); Seeds may instead be
	// given as SeedBase+SeedCount. Normalize folds both into the
	// explicit lists.
	Mechanisms []string  `json:"mechanisms"`
	Patterns   []string  `json:"patterns,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	LoadSpec   string    `json:"load_spec,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	SeedBase   uint64    `json:"seed_base,omitempty"`
	SeedCount  int       `json:"seed_count,omitempty"`

	// Reuse is kept on the wire for the job identities that carry it:
	// "construct" (the default) or "off". It selects nothing — every
	// runner restores points from construction templates, which is
	// bit-identical to a cold build — but it is part of the Fingerprint,
	// so journals and job IDs stay stable. The approximate "warm" mode is
	// CLI-only: served results must be exact.
	Reuse string `json:"reuse,omitempty"`
}

// Normalize fills defaults, folds alternative encodings into canonical
// fields, and validates everything a submission endpoint must reject
// early: unknown mechanism/pattern/arbitration/latency-model names,
// illegal or oversized topologies (before any is built), empty grids.
func (s *Spec) Normalize() error {
	if s.Kind == "" {
		s.Kind = "sweep"
	}
	if s.Kind != "sweep" {
		return fmt.Errorf("spec: unsupported kind %q (only \"sweep\" is served)", s.Kind)
	}
	if len(s.Mechanisms) == 0 {
		return fmt.Errorf("spec: mechanisms must be non-empty")
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"UN"}
	}
	if err := s.Base.Normalize(s.Mechanisms, s.Patterns); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.LoadSpec != "" {
		if len(s.Loads) > 0 {
			return fmt.Errorf("spec: give loads or load_spec, not both")
		}
		loads, err := cli.ParseLoads(s.LoadSpec)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		s.Loads, s.LoadSpec = loads, ""
	}
	if len(s.Loads) == 0 {
		return fmt.Errorf("spec: loads (or load_spec) must be non-empty")
	}
	for i, l := range s.Loads {
		if l < 0 {
			return fmt.Errorf("spec: negative load %v", l)
		}
		// Canonicalize to the 9 significant digits recordKey treats as one
		// operating point, so a load reached by range accumulation
		// (0.1+0.1+0.1) and its literal spelling (0.3) fingerprint alike.
		s.Loads[i] = canonLoad(l)
	}
	// Mechanism and pattern names are case-insensitive everywhere; fold
	// them so spellings converge to one fingerprint.
	for i, m := range s.Mechanisms {
		s.Mechanisms[i] = strings.ToLower(strings.TrimSpace(m))
	}
	for i, p := range s.Patterns {
		s.Patterns[i] = strings.ToUpper(strings.TrimSpace(p))
	}
	if len(s.Seeds) == 0 {
		base := s.SeedBase
		if base == 0 {
			base = 1
		}
		n := s.SeedCount
		if n == 0 {
			n = 1
		}
		seeds, err := cli.ParseSeeds(base, n)
		if err != nil {
			return fmt.Errorf("spec: seed_count: %w", err)
		}
		s.Seeds = seeds
	}
	s.SeedBase, s.SeedCount = 0, 0
	switch s.Reuse {
	case "":
		s.Reuse = "construct"
	case "off", "construct":
	default:
		return fmt.Errorf("spec: reuse must be off or construct (warm reuse is approximate and CLI-only), got %q", s.Reuse)
	}
	return nil
}

// canonLoad rounds a load to 9 significant digits — the same tolerance
// the checkpoint record key uses to identify an operating point.
func canonLoad(l float64) float64 {
	v, err := strconv.ParseFloat(strconv.FormatFloat(l, 'g', 9, 64), 64)
	if err != nil {
		return l
	}
	return v
}

// Grid expands the normalized spec into its sweep grid. Each call builds
// a fresh snapshot cache, so concurrent runners never share mutable state
// through the spec.
func (s *Spec) Grid() (sweep.Grid, error) {
	cfg, err := s.Config()
	if err != nil {
		return sweep.Grid{}, err
	}
	return sweep.Grid{
		Base:       cfg,
		Mechanisms: s.Mechanisms,
		Patterns:   s.Patterns,
		Loads:      s.Loads,
		Seeds:      s.Seeds,
		Snapshots:  &sweep.SnapshotCache{},
	}, nil
}

// specHash is the canonical digest of a normalized spec.
func specHash(s Spec) (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// normalized returns the spec's normal form, leaving the receiver as it is.
func (s Spec) normalized() (Spec, error) {
	err := s.Normalize()
	return s, err
}

// Fingerprint is the job identity: the digest of the whole normalized
// spec. Two submissions that normalize identically — whatever their
// spelling — get the same fingerprint, which is the serve store's
// job-level dedup key.
func (s Spec) Fingerprint() (string, error) {
	ns, err := s.normalized()
	if err != nil {
		return "", err
	}
	return specHash(ns)
}

// BaseFingerprint digests everything that shapes one point's result:
// the normalized spec minus the grid axes and minus the knobs results
// are bit-identical across (engine workers, construction reuse). Jobs
// sharing it share a checkpoint namespace, so partially-overlapping
// grids restore their common points instead of re-running them.
func (s Spec) BaseFingerprint() (string, error) {
	ns, err := s.normalized()
	if err != nil {
		return "", err
	}
	ns.Mechanisms, ns.Patterns, ns.Loads, ns.Seeds = nil, nil, nil, nil
	ns.SimWorkers = 0
	ns.Reuse = ""
	return specHash(ns)
}

// CanonicalJSON returns the normalized spec marshaled canonically — the
// form the store journals and serves to workers.
func (s Spec) CanonicalJSON() (json.RawMessage, error) {
	ns, err := s.normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(ns)
}
