package telemetry

import (
	"sort"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
)

// Event is one traced router event with every packet field the exporters
// need copied out at observation time — packets are pooled and recycled at
// delivery, so holding the *packet.Packet would be a use-after-recycle.
type Event struct {
	Now        int64
	ID         uint64
	Kind       router.TraceKind
	Router     int32
	Port       int16
	VC         int16
	Src        int32
	Dst        int32
	LocalHops  int8
	GlobalHops int8
	Phase      packet.Phase
}

// Tracer is a sampled, worker-safe packet tracer. It exploits the TraceFn
// contract — all events of one router are emitted by the goroutine
// currently stepping that router — by giving every router its own append
// buffer: no locks, no atomics, no sharing, whatever the worker count.
//
// Sampling is by packet identity (ID modulo SampleEvery; IDs are
// src<<32|seq, so this selects a deterministic ~1/SampleEvery subset of
// every source node's packets), which is a pure function of the packet —
// the traced set is identical across engines and worker counts, and a
// sampled packet is traced over its whole lifetime or not at all.
//
// Events reads the shards back as one deterministically merged stream.
type Tracer struct {
	every  uint64
	max    int // per-router event cap (0: unbounded)
	shards [][]Event
	drops  []int64
}

// NewTracer builds a tracer over `routers` router shards tracing every
// sampleEvery-th packet per source node (1: all packets). maxPerRouter
// bounds each shard's memory (0: unbounded); events past the cap are
// counted as dropped, not stored.
func NewTracer(routers int, sampleEvery uint64, maxPerRouter int) *Tracer {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &Tracer{
		every:  sampleEvery,
		max:    maxPerRouter,
		shards: make([][]Event, routers),
		drops:  make([]int64, routers),
	}
}

// Hook returns the TraceFn to install on router r. The returned function
// must only ever run on the goroutine stepping r — exactly the TraceFn
// delivery contract.
func (t *Tracer) Hook(r int) router.TraceFn {
	shard := &t.shards[r]
	drops := &t.drops[r]
	return func(now int64, kind router.TraceKind, p *packet.Packet, routerID, port, vc int) {
		if p.ID%t.every != 0 {
			return
		}
		if t.max > 0 && len(*shard) >= t.max {
			*drops++
			return
		}
		*shard = append(*shard, Event{
			Now:        now,
			ID:         p.ID,
			Kind:       kind,
			Router:     int32(routerID),
			Port:       int16(port),
			VC:         int16(vc),
			Src:        p.Src,
			Dst:        p.Dst,
			LocalHops:  int8(p.LocalHops),
			GlobalHops: int8(p.GlobalHops),
			Phase:      p.Phase,
		})
	}
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	n := 0
	for _, s := range t.shards {
		n += len(s)
	}
	return n
}

// Dropped returns the number of events discarded by the per-router cap.
func (t *Tracer) Dropped() int64 {
	var n int64
	for _, d := range t.drops {
		n += d
	}
	return n
}

// Events merges the per-router shards into one deterministic stream,
// ordered by (cycle, router, within-router emission order). Within-router
// order is deterministic because each router's simulation is; the sort is
// stable, so ties inside one router keep that order. Shards are not
// time-sorted internally (a delivery is stamped with its future arrival
// cycle), which is why the merge sorts rather than k-way-merges. The
// result is identical for any engine and worker count. Call after the run;
// the merge is performed once and cached.
func (t *Tracer) Events() []Event {
	if t.shards == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for _, s := range t.shards {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Now != out[j].Now {
			return out[i].Now < out[j].Now
		}
		return out[i].Router < out[j].Router
	})
	return out
}

// perPacket groups an event stream by packet ID, each packet's events in
// stream order, with the packet IDs returned in first-appearance order.
func perPacket(events []Event) (ids []uint64, byID map[uint64][]Event) {
	byID = make(map[uint64][]Event)
	for _, e := range events {
		if _, ok := byID[e.ID]; !ok {
			ids = append(ids, e.ID)
		}
		byID[e.ID] = append(byID[e.ID], e)
	}
	return ids, byID
}
