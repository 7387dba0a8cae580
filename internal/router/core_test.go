package router

import (
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// A restore that recycles a retired Core hands the packets that Core still
// held — the retired run's in-flight traffic — back through the RETIRED
// binding's Recycle before it drops them: that network and its pool are the
// ones the restored run generates from. Pinned by counting, not by
// allocation metering (a sync.Pool gives no guarantees to meter): every
// packet the retired Core holds, in each of the three packet arenas, is
// recycled exactly once, and the new binding sees none of them.
func TestCloneRecyclesRetiredPackets(t *testing.T) {
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

	recycled := map[*packet.Packet]int{}
	retired, err := NewCore(wiring(func(p *packet.Packet) { recycled[p]++ }))
	if err != nil {
		t.Fatal(err)
	}
	// A dense sequential run at full load, abandoned mid-flight: every node
	// sends a packet every serialisation time to a node of the next group.
	retired.SetAllSinks(func(ev LinkEvent) { retired.PushDue(ev.Router, ev) })
	p := topo.Params()
	perGroup := topo.NumNodes() / topo.NumGroups()
	for now := int64(0); now < 60; now++ {
		for r := 0; r < topo.NumRouters(); r++ {
			for i := 0; i < p.P && now%int64(cfg.SerialCycles()) == 0; i++ {
				if retired.InjectionBacklog(r, i) >= cfg.InjectionQueuePackets {
					continue
				}
				src := r*p.P + i
				pkt := new(packet.Packet)
				pkt.Reset()
				pkt.ID, pkt.Src, pkt.Dst = uint64(src)<<32|uint64(now), src, (src+perGroup+1)%topo.NumNodes()
				pkt.Size, pkt.GenTime = cfg.PacketSize, now
				retired.EnqueueInjection(r, now, pkt)
			}
			retired.StepRouter(r, now)
		}
	}
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
