package sim

import (
	"errors"
	"fmt"

	"dragonfly/internal/router"
)

// Snapshot is a frozen image of a network: the traffic sources and
// PiggyBack bits, and the core — its state arrays with every queued and
// in-flight packet, or, for a construction snapshot, only what an empty
// network cannot compute (the wiring, the arbitration RNG streams and the
// node streams' pre-draw positions; no source state, which every restore
// aims afresh). The construction snapshots of one family (FamilyOf) share
// those three through Sibling.
// Nothing ever steps the image, and restoring it never re-wires the
// topology: a captured state is a few dozen memcpys and a deep copy of the
// live packets, a construction snapshot a reset that writes the empty state.
// NewSnapshot freezes the network it builds; Network.Snapshot copies a live
// one. Allocator scratch, engine hooks and probe or tracer attachments are
// not state and are not captured. Two capture points are supported:
//
//   - Construction snapshots (taken before any engine run) are reusable for
//     ANY load: every node RNG is rewound to its position from just before
//     the only load-dependent build-time draw (see Network.nodeRnd0) and the
//     draw is redone at the target load, so a restored network is
//     bit-identical to a cold NewNetwork at that load.
//
//   - Warm snapshots (taken after cycles ran, e.g. after WarmupNetwork)
//     additionally carry the warmed-up queue and credit state, rebased to
//     cycle 0 (see Network.rebase). They restore only at the snapshot's own
//     load, and the restore is bit-identical to resuming the original run:
//     all state the engines read is captured, packets and credits in
//     flight included, and a restored run starting with every router
//     active only adds provable no-op steps (see engine).
//
// A Snapshot is immutable after capture and safe to restore from
// concurrently; each restored network is fully independent.
type Snapshot struct {
	cfg  Config // build configuration, Probes/Tracer stripped
	warm int64  // warm-up cycles baked into the captured state (0: construction)
	tmpl *Network
}

// Snapshot captures the network's current state into a frozen template. It
// may be taken on any core-built network between engine runs and leaves
// the network untouched. The capture is rebased to cycle 0, so restores
// always start at cycle 0 regardless of how the template was prepared.
func (net *Network) Snapshot() (*Snapshot, error) {
	if net.core == nil {
		return nil, errors.New("sim: only core-built networks can be snapshotted")
	}
	cfg := *net.cfg
	cfg.Probes = nil
	cfg.Tracer = nil
	snap := &Snapshot{cfg: cfg, warm: net.ranCycles}
	snap.tmpl = cloneNetwork(net, &snap.cfg, nil)
	snap.tmpl.rebase()
	return snap, nil
}

// NewSnapshot builds a network from cfg, optionally warms it for warmCycles
// (without ever enabling measurement), and freezes it: the built network is
// the template, not a copy of it. A construction template (warmCycles 0) is
// built over router.NewTemplate: the core's shape and RNG streams, no state
// array and no per-node source state — a seventeenth of a network's bytes
// at h=6 — since every restore writes the empty state and aims the sources
// itself. Probes and tracers never apply to template preparation.
// The pattern is built from cfg.Pattern; networks built around an explicit
// pattern instance must capture through Network.Snapshot directly, and the
// caller then owns the compatibility of restore configurations with that
// pattern.
func NewSnapshot(cfg Config, warmCycles int64) (*Snapshot, error) {
	return newSnapshot(cfg, warmCycles, nil)
}

// FamilyOf names the construction-snapshot family of cfg: its topology, its
// latency model as compatibleWith compares it, and its seed. The wiring,
// the arbitration streams and the node streams' pre-draw positions are a
// function of these alone, so every construction snapshot of one family
// may share them (Sibling), whatever its mechanism, pattern or router and
// routing parameters.
func FamilyOf(cfg *Config) string { return cfg.identity(idTopology | idSeed) }

// Sibling is NewSnapshot(cfg, 0) for a cfg of s's family, borrowing what
// the family shares from s instead of computing it again: the topology,
// the wiring, the per-router arbitration streams and the node streams'
// pre-draw positions. What is left to build is what cfg alone decides —
// the port-class tables and credit-arena size of its VC counts, its
// pattern and its PiggyBack state — a few KiB at h=6 where s is 0.7 MiB.
// Restores from the sibling are bit-identical to restores from
// NewSnapshot(cfg, 0). s must be a construction snapshot that NewSnapshot
// or Sibling built.
func (s *Snapshot) Sibling(cfg Config) (*Snapshot, error) {
	if s.warm != 0 {
		return nil, errors.New("sim: only a construction snapshot has siblings")
	}
	if a, b := FamilyOf(&s.cfg), FamilyOf(&cfg); a != b {
		return nil, fmt.Errorf("sim: snapshot family %s does not match %s", a, b)
	}
	return newSnapshot(cfg, 0, s)
}

// newSnapshot is NewSnapshot building a construction template over fam's
// family part when fam is non-nil (see Sibling).
func newSnapshot(cfg Config, warmCycles int64, fam *Snapshot) (*Snapshot, error) {
	cfg.Probes = nil
	cfg.Tracer = nil
	snap := &Snapshot{cfg: cfg}
	var net *Network
	var err error
	if warmCycles > 0 {
		if net, err = NewNetwork(&snap.cfg, nil); err == nil {
			err = WarmupNetwork(net, &snap.cfg, warmCycles)
		}
	} else {
		var src *Network
		if fam != nil {
			src = fam.tmpl
		}
		net, err = newNetworkOn(&snap.cfg, nil, src, func(w router.Wiring) (Fabric, error) { return router.NewTemplate(w) })
	}
	if err != nil {
		return nil, err
	}
	snap.warm = net.ranCycles
	net.rebase()
	snap.tmpl = net
	return snap, nil
}

// compatibleWith reports whether cfg may be restored from this snapshot.
// Everything that shapes the wired structure or the random streams must
// match the capture configuration: topology, mechanism, pattern, seed,
// router and routing parameters and the latency model — and, for a warm
// snapshot, the load it was captured at.
// Cycle counts, worker count, probes and tracer are free, and so is the
// load of a construction snapshot: it pins what TemplateKey names.
func (s *Snapshot) compatibleWith(cfg *Config) error {
	b := &s.cfg
	var lat, blat [64]byte
	switch {
	case cfg.Topology != b.Topology:
		return fmt.Errorf("sim: snapshot topology %+v does not match %+v", b.Topology, cfg.Topology)
	case cfg.Mechanism != b.Mechanism:
		return fmt.Errorf("sim: snapshot mechanism %q does not match %q", b.Mechanism, cfg.Mechanism)
	case cfg.Pattern != b.Pattern:
		return fmt.Errorf("sim: snapshot pattern %q does not match %q", b.Pattern, cfg.Pattern)
	case cfg.Seed != b.Seed:
		return fmt.Errorf("sim: snapshot seed %d does not match %d", b.Seed, cfg.Seed)
	case cfg.Router != b.Router:
		return fmt.Errorf("sim: snapshot router config does not match")
	case cfg.Routing != b.Routing:
		return fmt.Errorf("sim: snapshot routing config does not match")
	case string(appendLatency(lat[:0], cfg)) != string(appendLatency(blat[:0], b)):
		return fmt.Errorf("sim: snapshot latency model %q does not match %q", appendLatency(nil, b), appendLatency(nil, cfg))
	case s.warm != 0 && cfg.Load != b.Load:
		return fmt.Errorf("sim: a warm snapshot restores only at its capture load %v, not %v", b.Load, cfg.Load)
	}
	return nil
}

// RestoreNetwork materialises a fresh, fully independent network from the
// snapshot, ready for RunNetwork under cfg — without re-running wiring (and,
// for warm snapshots, without re-running warm-up).
// Restores from one snapshot are safe concurrently.
//
// Construction snapshots always re-aim the node generation processes from
// their pre-draw RNG positions, reproducing a cold NewNetwork at cfg.Load
// bit-for-bit. Warm snapshots are pure clones.
func RestoreNetwork(snap *Snapshot, cfg *Config) (*Network, error) {
	return RestoreNetworkInto(snap, cfg, nil)
}

// RestoreNetworkInto is RestoreNetwork recycling a retired network: old's
// arrays are overwritten in place wherever their capacity covers snap's
// shape — whatever snapshot old was restored from — so the steady state of
// a sweep that restores, runs and restores again allocates almost nothing
// per point, across templates. old may be nil or of any shape; what does
// not fit is reallocated. The caller must have finished with old entirely
// (results are safe: a Result aliases no network state); the returned
// network is old whenever old is non-nil.
func RestoreNetworkInto(snap *Snapshot, cfg *Config, old *Network) (*Network, error) {
	if err := snap.compatibleWith(cfg); err != nil {
		return nil, err
	}
	net := cloneNetwork(snap.tmpl, cfg, old)
	if snap.warm == 0 {
		net.aimSources()
	}
	return net, nil
}

// cloneNetwork copies src into an independent network bound to cfg.
// Immutable structure — topology, mechanism, pattern, latency model, group
// map, the pre-draw node RNG bank, and the core's shape — is shared;
// everything the engines mutate is copied, but for the source state a
// construction template does not hold: the clone's is only sized, for
// RestoreNetworkInto to aim. into, when non-nil, is a retired network that
// is overwritten and returned instead of allocating.
func cloneNetwork(src *Network, cfg *Config, into *Network) *Network {
	clone := into
	if clone == nil {
		clone = &Network{}
	}
	clone.topo, clone.cfg, clone.rcfg, clone.mech = src.topo, cfg, src.rcfg, src.mech
	clone.pattern, clone.wl = src.pattern, src.wl
	clone.genProb = cfg.Load / float64(src.rcfg.PacketSize)
	clone.latency, clone.uniform = src.latency, src.uniform
	clone.nodeRnd0 = src.nodeRnd0
	clone.ranCycles = src.ranCycles
	clone.engineSteps, clone.engineWindows, clone.stoppedAt, clone.telemetry = 0, 0, 0, nil
	clone.env = src.env
	if src.pb == nil {
		clone.pb = nil
	} else {
		// The arrays are sized by the topology's dimensions; the topology
		// itself is set on every clone, since a retired network may come from
		// a template of another family.
		if clone.pb == nil || clone.pb.topo.Params() != src.pb.topo.Params() {
			clone.pb = newPBState(clone)
		}
		clone.pb.topo = src.pb.topo
		copy(clone.pb.bits, src.pb.bits)
		clear(clone.pb.updates)
		clone.env.Group = clone.pb.view
	}
	clone.nodeJob = src.nodeJob // the shared pattern's map
	clone.core = src.core.Clone(clone.core, clone.binding())
	clone.fab, clone.Routers = clone.core, clone.core.Views()
	if src.nodes == nil {
		clone.sizeSources()
	} else {
		clone.nodes = append(clone.nodes[:0], src.nodes...)
		clone.genWake = append(clone.genWake[:0], src.genWake...)
	}
	return clone
}
