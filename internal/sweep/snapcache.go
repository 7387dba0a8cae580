package sweep

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/sim"
)

// ReuseMode selects what the points of a sweep share through snapshots (see
// sim.Snapshot): every point restores its network from a template instead
// of re-building the same topology from scratch.
type ReuseMode int

const (
	// ReuseConstruct builds one construction snapshot per distinct
	// (mechanism, pattern, seed, topology, …) combination and restores it
	// for every load. Restored runs are bit-identical to cold builds — the
	// sweep output cannot change, only the wiring cost is saved.
	ReuseConstruct ReuseMode = iota
	// ReuseWarm additionally bakes the warm-up into the snapshot, captured
	// at the sweep's first load. Points at that load skip warm-up exactly
	// (bit-identical to construct); points at other loads re-aim the
	// sources and re-run a short re-warm tail — an approximation, so warm
	// sweeps are fingerprinted separately from exact ones.
	ReuseWarm
)

// String returns the flag spelling of the mode.
func (m ReuseMode) String() string {
	if m == ReuseWarm {
		return "warm"
	}
	return "construct"
}

// ParseReuse parses a -reuse flag value.
func ParseReuse(s string) (ReuseMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "construct", "construction", "cold":
		return ReuseConstruct, nil
	case "warm":
		return ReuseWarm, nil
	case "off", "none":
		return ReuseConstruct, fmt.Errorf("sweep: reuse mode %q is no longer offered: construct, the default, is bit-identical to a cold build", s)
	default:
		return ReuseConstruct, fmt.Errorf("sweep: unknown reuse mode %q (construct, warm)", s)
	}
}

// SnapshotCache shares snapshots between the points of one or more sweeps.
// Template construction is single-flight per key: under pool concurrency
// the first point of a combination builds the snapshot while its siblings
// block on it, then every point restores its own independent network. The
// cache is safe for concurrent use and unbounded — a sweep has a small,
// finite set of (mechanism, pattern, seed) combinations.
type SnapshotCache struct {
	// Mode selects the reuse policy (zero: ReuseConstruct).
	Mode ReuseMode
	// ReWarm is the warm-up tail, in cycles, of a ReuseWarm restore at a
	// load other than the template's. Negative means the default of a
	// quarter of the configured warm-up.
	ReWarm int64

	mu      sync.Mutex
	entries map[string]*cacheEntry
	// free holds the networks whose runs have finished, whatever template
	// they were restored from: the next restore — of any entry — overwrites
	// one in place (see sim.RestoreNetworkInto) instead of allocating a
	// fresh network. At most one network per concurrent worker ever
	// accumulates.
	free  []*sim.Network
	stats CacheStats
}

// CacheStats counts what a SnapshotCache did. Templates and the sum of the
// restores follow from the grid alone; fresh restores never exceed the
// concurrent workers.
type CacheStats struct {
	Templates        int // snapshot templates built
	FreshRestores    int // restores that allocated a new network
	RecycledRestores int // restores that overwrote a retired network
}

// String renders the counters for a tool's closing summary line.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d templates built, %d fresh + %d recycled restores",
		s.Templates, s.FreshRestores, s.RecycledRestores)
}

// Stats returns the cache's counters so far (zero for a nil cache).
func (c *SnapshotCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

type cacheEntry struct {
	once sync.Once
	snap *sim.Snapshot
	err  error
}

// takeFree pops a retired network (nil when there is none) and counts the
// restore it is about to serve.
func (c *SnapshotCache) takeFree() *sim.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.free)
	if n == 0 {
		c.stats.FreshRestores++
		return nil
	}
	c.stats.RecycledRestores++
	net := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	return net
}

// putFree parks a retired network for the next restore.
func (c *SnapshotCache) putFree(net *sim.Network) {
	c.mu.Lock()
	c.free = append(c.free, net)
	c.mu.Unlock()
}

// cacheKey identifies a snapshot template: everything CompatibleWith pins
// (the load axis excluded), plus — for warm templates — the capture load
// and warm-up length.
func (c *SnapshotCache) cacheKey(cfg *sim.Config, templateLoad float64) string {
	key := fmt.Sprintf("%s|%s|%d|%+v|%+v|%+v|lat=%v",
		cfg.Mechanism, cfg.Pattern, cfg.Seed, cfg.Topology, cfg.Router, cfg.Routing,
		cfg.LatencyModel)
	if c.Mode == ReuseWarm {
		key += fmt.Sprintf("|warm=%d@%.9g", cfg.WarmupCycles, templateLoad)
	}
	return key
}

// snapshotFor returns (building its template exactly once) the cache entry
// for cfg.
func (c *SnapshotCache) snapshotFor(cfg *sim.Config, templateLoad float64) (*cacheEntry, error) {
	key := c.cacheKey(cfg, templateLoad)
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
		c.stats.Templates++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		bcfg := *cfg
		bcfg.Probes = nil
		bcfg.Tracer = nil
		bcfg.Load = templateLoad
		var warm int64
		if c.Mode == ReuseWarm {
			warm = bcfg.WarmupCycles
		}
		e.snap, e.err = sim.NewSnapshot(bcfg, warm)
	})
	return e, e.err
}

// rewarmTail resolves the re-warm length against the configured warm-up.
func (c *SnapshotCache) rewarmTail(warmup int64) int64 {
	if c.ReWarm >= 0 {
		return c.ReWarm
	}
	return warmup / 4
}

// Run executes one simulation through the cache: restore (building the
// shared template on first use), run, package the result. The reuse tag
// records how the point actually ran ("construct", "warm" for an exact
// same-load warm skip, "rewarm" for a cross-load tail) and travels into
// the Sample and its checkpoint Record.
func (c *SnapshotCache) Run(cfg sim.Config, templateLoad float64) (*sim.Result, string, error) {
	start := time.Now()
	e, err := c.snapshotFor(&cfg, templateLoad)
	if err != nil {
		return nil, "", err
	}
	runCfg := cfg
	tag := "construct"
	if c.Mode == ReuseWarm {
		if cfg.Load == templateLoad {
			runCfg.WarmupCycles = 0
			tag = "warm"
		} else {
			runCfg.WarmupCycles = c.rewarmTail(cfg.WarmupCycles)
			tag = "rewarm"
		}
	}
	net, err := sim.RestoreNetworkInto(e.snap, &runCfg, c.takeFree())
	if err != nil {
		return nil, "", err
	}
	if err := sim.RunNetwork(net, &runCfg); err != nil {
		return nil, tag, err
	}
	res := sim.NewResultFrom(net, &runCfg, time.Since(start))
	c.putFree(net) // the result aliases nothing in net; recycle it
	return res, tag, nil
}
