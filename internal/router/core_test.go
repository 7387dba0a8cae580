package router

import (
	"math"
	"slices"
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// denseRun builds an h=2 MIN network and steps every router through `cycles`
// cycles at full load — every node sends a packet every serialisation time
// to a node of the next group — leaving it mid-flight. It returns the Core
// and the wiring it was built from, re-bindable to another Recycle hook.
func denseRun(t *testing.T, cycles int64, recycle func(*packet.Packet)) (*Core, func(func(*packet.Packet)) Wiring) {
	t.Helper()
	topo := topology.New(topology.Balanced(2))
	mech, err := routing.ByName("MIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LocalVCs, cfg.GlobalVCs = mech.VCNeeds()
	rcfg := routing.DefaultConfig()
	rcfg.LocalVCs, rcfg.GlobalVCs, rcfg.PacketSize = cfg.LocalVCs, cfg.GlobalVCs, cfg.PacketSize
	env := &routing.Env{Topo: topo, Cfg: rcfg}
	wiring := func(recycle func(*packet.Packet)) Wiring {
		return Wiring{
			Topo: topo, Cfg: &cfg, Mech: mech, Rng: rng.New(1),
			Latency: topology.UniformLatency{Local: cfg.LocalLatency, Global: cfg.GlobalLatency},
			Binding: Binding{Env: env, Recycle: recycle},
		}
	}
	c, err := NewCore(wiring(recycle))
	if err != nil {
		t.Fatal(err)
	}
	c.SetAllSinks(func(ev LinkEvent) { c.PushDue(ev.Router, ev) })
	p := topo.Params()
	perGroup := topo.NumNodes() / topo.NumGroups()
	for now := int64(0); now < cycles; now++ {
		for r := 0; r < topo.NumRouters(); r++ {
			for i := 0; i < p.P && now%int64(cfg.SerialCycles()) == 0; i++ {
				if c.InjectionBacklog(r, i) >= cfg.InjectionQueuePackets {
					continue
				}
				src := r*p.P + i
				pkt := new(packet.Packet)
				pkt.Reset()
				pkt.ID, pkt.Src, pkt.Dst = uint64(src)<<32|uint64(now), src, (src+perGroup+1)%topo.NumNodes()
				pkt.Size, pkt.GenTime = cfg.PacketSize, now
				c.EnqueueInjection(r, now, pkt)
			}
			c.StepRouter(r, now)
		}
	}
	return c, wiring
}

// A restore that recycles a retired Core hands the packets that Core still
// held — the retired run's in-flight traffic — back through the RETIRED
// binding's Recycle before it drops them: that network and its pool are the
// ones the restored run generates from. Pinned by counting, not by
// allocation metering (a sync.Pool gives no guarantees to meter): every
// packet the retired Core holds, in each of the three packet arenas, is
// recycled exactly once, and the new binding sees none of them.
func TestCloneRecyclesRetiredPackets(t *testing.T) {
	recycled := map[*packet.Packet]int{}
	// A dense sequential run at full load, abandoned mid-flight.
	retired, wiring := denseRun(t, 60, func(p *packet.Packet) { recycled[p]++ })
	env := wiring(nil).Env
	held := map[*packet.Packet]bool{}
	var perArena [3]int
	retired.eachPacket(func(slot **packet.Packet, arena int, _ int32) {
		if held[*slot] {
			t.Fatalf("packet %v sits in two slots", *slot)
		}
		held[*slot] = true
		perArena[arena]++
	})
	for arena, n := range perArena {
		if n == 0 {
			t.Fatalf("the abandoned run holds no packet in arena %d (input queues, output queues, arrival rings): %v", arena, perArena)
		}
	}
	clear(recycled) // deliveries of the abandoned run itself

	tmpl, err := NewTemplate(wiring(nil))
	if err != nil {
		t.Fatal(err)
	}
	restored := tmpl.Clone(retired, Binding{Env: env, Recycle: func(p *packet.Packet) {
		t.Errorf("packet %v recycled through the new binding", p)
	}})
	if restored != retired {
		t.Fatal("Clone did not reuse the retired Core")
	}
	if len(recycled) != len(held) {
		t.Fatalf("%d packets recycled, the retired Core held %d (%v per arena)", len(recycled), len(held), perArena)
	}
	for pkt, n := range recycled {
		if !held[pkt] || n != 1 {
			t.Fatalf("packet %v: recycled %d times (held by the retired Core: %v)", pkt, n, held[pkt])
		}
	}
	if n := restored.InFlight(); n != 0 {
		t.Fatalf("a Core restored from an empty template holds %d packets", n)
	}
}

// When a state-only event is applied leaves no trace: settling a sleeping
// router cycle by cycle (what the dense oracle does), in one go at the end,
// or at any cycles in between yields the same state, word for word — every
// timestamp an arrival leaves behind is the event's own, a release and a
// credit leave none. A second Settle of the same cycle finds nothing.
func TestSettleIsIdempotentInTime(t *testing.T) {
	const from, span = 60, 40
	src, wiring := denseRun(t, from, func(*packet.Packet) {})
	variants := map[string]func(now int64) bool{
		"every cycle":       func(int64) bool { return true },
		"once, at the end":  func(now int64) bool { return now == from+span-1 },
		"every third cycle": func(now int64) bool { return now%3 == 0 || now == from+span-1 },
	}
	stateOf := func(c *Core) (state [][]int64) {
		for r := 0; r < c.nr; r++ {
			state = append(state, c.StateVector(r, nil))
		}
		return state
	}
	states := map[string][][]int64{}
	var kinds [3]int // releases, credits, arrivals pending in the source
	for r := 0; r < src.nr; r++ {
		kinds[0] += len(src.relDue[r].q) - src.relDue[r].head
	}
	for pi := range src.arrQ {
		kinds[1] += int(src.crdQ[pi].qlen)
		kinds[2] += int(src.arrQ[pi].qlen)
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("the source run has nothing pending of kind %d (releases, credits, arrivals): %v", k, kinds)
		}
	}
	for name, due := range variants {
		c := src.Clone(nil, wiring(func(*packet.Packet) {}).Binding)
		applied := false
		for now := int64(from); now < from+span; now++ {
			if !due(now) {
				continue
			}
			for r := 0; r < c.nr; r++ {
				// No router steps here, so nothing is ever "slept through".
				if c.bookAt[r] <= now {
					c.settle(r, r*c.np, now, math.MinInt64)
					applied = true
				}
				if c.Settle(r, now) {
					t.Fatalf("%s: router %d had something left to settle at cycle %d right after settling it", name, r, now)
				}
			}
		}
		if !applied {
			t.Fatalf("%s: nothing fell due in %d cycles", name, span)
		}
		for r := 0; r < c.nr; r++ {
			if err := c.CheckSleep(r, math.MinInt64); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		states[name] = stateOf(c)
	}
	want := states["every cycle"]
	for name, got := range states {
		for r := range want {
			if !slices.Equal(want[r], got[r]) {
				t.Fatalf("router %d: settling %s leaves a different state than settling every cycle", r, name)
			}
		}
	}
	if slices.EqualFunc(want, stateOf(src), slices.Equal[[]int64]) {
		t.Fatal("settling changed no router's state: the test compares nothing")
	}
}

// A credit ring has room for every credit its port can be owed. With lazy
// settling a router that has nothing queued at a port is not woken for the
// credits returning there, however long it sleeps and however many come: the
// ring is bounded by counting — one entry per packet sent and not credited,
// and the downstream buffer holds only so many — not by how long an entry
// used to wait. The port here has filled every downstream VC; all the
// credits come back, latency-spaced, before the router is looked at again.
func TestCreditRingHoldsEveryOutstandingCredit(t *testing.T) {
	c, _ := denseRun(t, 0, func(*packet.Packet) {})
	const r, p = 3, 0 // a local port: the timing-derived ring used to be 6 slots
	pi := r*c.np + p
	perVC := c.downCapVC[p] / int32(c.size)
	for vc := 0; vc < int(c.nOutVC[p]); vc++ {
		c.outQ[pi*c.maxVC+vc].credits -= perVC * int32(c.size)
		c.outP[pi].free -= perVC * int32(c.size)
	}
	owed := int(perVC) * int(c.nOutVC[p])
	if owed <= 6 {
		t.Fatalf("port owes %d credits at most: the test needs more than the old ring held", owed)
	}
	at := int64(100)
	for k := 0; k < owed; k++ {
		if wake := c.PushDue(r, LinkEvent{Router: r, Port: p, At: at, Credit: true, PVC: int32(k % int(c.nOutVC[p]))}); wake >= 0 {
			t.Fatalf("credit %d for an output with nothing queued asks for a step at %d", k, wake)
		}
		at += c.xbar
	}
	if !c.Settle(r, at) {
		t.Fatal("nothing to settle after the credits came back")
	}
	if got := c.outP[pi].free; got != c.downTotal[p] {
		t.Fatalf("port holds %d phits of credit after all came back, want %d", got, c.downTotal[p])
	}
}
