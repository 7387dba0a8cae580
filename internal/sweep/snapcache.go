package sweep

import (
	"fmt"
	"sync"
	"time"

	"dragonfly/internal/sim"
)

// ReuseMode once chose between construction and warm snapshot reuse.
//
// Deprecated: selects nothing. Every point restores from a construction
// template; the type stays only while benchmark/ names it.
type ReuseMode int

// ReuseConstruct is the one ReuseMode.
//
// Deprecated: selects nothing (see ReuseMode).
const ReuseConstruct ReuseMode = 0

// SnapshotCache shares construction templates between the points of one or
// more sweeps: every point restores its network from the template of its
// (mechanism, pattern, seed, topology, …) combination instead of re-building
// the same topology, and a restore is bit-identical to a cold build at any
// load (sim.Snapshot), so a template is built at the load of the first
// point that asks for it. Template construction is single-flight per key:
// under pool concurrency the first point of a combination builds the
// snapshot while its siblings block on it, then every point restores its
// own independent network. Templates are grouped further by family
// (sim.FamilyOf: topology, latency model, seed): the first template of a
// family is built in full, and every other one of that family is its
// sim.Snapshot.Sibling, borrowing the wiring and RNG streams. The cache is
// safe for concurrent use and unbounded — a sweep has a small, finite set
// of (mechanism, pattern, seed) combinations.
type SnapshotCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// families maps a family to the entry of its first construction
	// template, the one the others borrow from.
	families map[string]*cacheEntry
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

// cacheEntry is one template: built once, from cfg, on first use.
type cacheEntry struct {
	cfg sim.Config // Probes and Tracer stripped
	// family is the first construction template of cfg's family when that
	// is another entry (nil: this entry is built in full).
	family *cacheEntry

	once sync.Once
	snap *sim.Snapshot
	err  error
}

// get returns the entry's snapshot, building it on first use. A family
// member that cannot borrow — its family's first template failed to build,
// for a reason of its own mechanism, say — builds in full, so that it
// fails, or not, exactly as alone.
func (e *cacheEntry) get() (*sim.Snapshot, error) {
	e.once.Do(func() {
		if e.family != nil {
			if fam, err := e.family.get(); err == nil {
				e.snap, e.err = fam.Sibling(e.cfg)
				return
			}
		}
		e.snap, e.err = sim.NewSnapshot(e.cfg, 0)
	})
	return e.snap, e.err
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

// cacheKey identifies a construction template: everything CompatibleWith
// pins, the load axis excluded.
func cacheKey(cfg *sim.Config) string {
	return fmt.Sprintf("%s|%s|%d|%+v|%+v|%+v|lat=%v",
		cfg.Mechanism, cfg.Pattern, cfg.Seed, cfg.Topology, cfg.Router, cfg.Routing,
		cfg.LatencyModel)
}

// snapshotFor returns (building its template exactly once) the cache entry
// for cfg.
func (c *SnapshotCache) snapshotFor(cfg *sim.Config) (*cacheEntry, error) {
	key := cacheKey(cfg)
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
		c.families = make(map[string]*cacheEntry)
	}
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{cfg: *cfg}
		e.cfg.Probes, e.cfg.Tracer = nil, nil
		if fam := sim.FamilyOf(cfg); c.families[fam] == nil {
			c.families[fam] = e
		} else {
			e.family = c.families[fam]
		}
		c.entries[key] = e
		c.stats.Templates++
	}
	c.mu.Unlock()
	_, err := e.get()
	return e, err
}

// Run executes one simulation through the cache: restore (building the
// shared template on first use), run, package the result.
func (c *SnapshotCache) Run(cfg sim.Config) (*sim.Result, error) {
	start := time.Now()
	e, err := c.snapshotFor(&cfg)
	if err != nil {
		return nil, err
	}
	net, err := sim.RestoreNetworkInto(e.snap, &cfg, c.takeFree())
	if err != nil {
		return nil, err
	}
	if err := sim.RunNetwork(net, &cfg); err != nil {
		return nil, err
	}
	res := sim.NewResultFrom(net, &cfg, time.Since(start))
	c.putFree(net) // the result aliases nothing in net; recycle it
	return res, nil
}
