package refmodel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dragonfly/internal/packet"
)

// linkImpls enumerates the Link implementations under test. Every
// behavioural test below runs against both: the contract is shared, and
// the event links are proven drop-in replacements for the seed rings.
// Spacing 1 is the worst case for the event links (one event per cycle),
// so the behavioural tests also exercise their largest rings.
var linkImpls = []struct {
	name string
	mk   func(latency int) Link
}{
	{"ring", func(latency int) Link { return NewLink(latency, 8) }},
	{"event", func(latency int) Link { return NewEventLink(latency, 1, 1) }},
}

func TestLinkPacketDelivery(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			p := &packet.Packet{ID: 1}
			l.PushPacket(25, p)
			for at := int64(20); at < 25; at++ {
				if got := l.PopPacket(at); got != nil {
					t.Fatalf("packet surfaced early at %d", at)
				}
			}
			if got := l.PopPacket(25); got != p {
				t.Fatal("packet not delivered at its cycle")
			}
			if got := l.PopPacket(25); got != nil {
				t.Fatal("packet delivered twice")
			}
		})
	}
}

func TestLinkCreditDelivery(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushCredit(17, 2, 8)
			if _, phits := l.PopCredit(16); phits != 0 {
				t.Fatal("credit surfaced early")
			}
			vc, phits := l.PopCredit(17)
			if vc != 2 || phits != 8 {
				t.Fatalf("credit = (%d,%d), want (2,8)", vc, phits)
			}
			if _, phits := l.PopCredit(17); phits != 0 {
				t.Fatal("credit delivered twice")
			}
		})
	}
}

func TestLinkSlotCollisionPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushPacket(5, &packet.Packet{})
			defer func() {
				if recover() == nil {
					t.Fatal("packet slot collision did not panic")
				}
			}()
			l.PushPacket(5, &packet.Packet{})
		})
	}
}

func TestLinkCreditCollisionPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushCredit(5, 0, 8)
			defer func() {
				if recover() == nil {
					t.Fatal("credit slot collision did not panic")
				}
			}()
			l.PushCredit(5, 1, 8)
		})
	}
}

func TestLinkRingReuse(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(3)
			// Push/pop far more events than the ring size; slots must recycle.
			for i := int64(0); i < 100; i++ {
				l.PushPacket(i+4, &packet.Packet{ID: uint64(i)})
				if i >= 4 {
					p := l.PopPacket(i)
					if p == nil || p.ID != uint64(i-4) {
						t.Fatalf("cycle %d: got %v, want packet %d", i, p, i-4)
					}
				}
			}
		})
	}
}

func TestLinkInFlight(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			if l.InFlight() != 0 {
				t.Fatal("new link not empty")
			}
			l.PushPacket(5, &packet.Packet{})
			l.PushPacket(9, &packet.Packet{})
			if got := l.InFlight(); got != 2 {
				t.Fatalf("InFlight() = %d, want 2", got)
			}
			l.PopPacket(5)
			if got := l.InFlight(); got != 1 {
				t.Fatalf("InFlight() = %d, want 1", got)
			}
		})
	}
}

func TestLinkOutOfOrderPushPanics(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			l.PushPacket(15, &packet.Packet{})
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-order packet push did not panic")
				}
			}()
			l.PushPacket(12, &packet.Packet{})
		})
	}
}

func TestLinkEarliestPending(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			l := impl.mk(10)
			if l.EarliestPacket() != -1 || l.EarliestCredit() != -1 {
				t.Fatal("idle link reports pending events")
			}
			l.PushPacket(12, &packet.Packet{})
			l.PushPacket(20, &packet.Packet{})
			l.PushCredit(15, 1, 8)
			if got := l.EarliestPacket(); got != 12 {
				t.Fatalf("EarliestPacket() = %d, want 12", got)
			}
			if got := l.EarliestCredit(); got != 15 {
				t.Fatalf("EarliestCredit() = %d, want 15", got)
			}
			l.PopPacket(12)
			if got := l.EarliestPacket(); got != 20 {
				t.Fatalf("EarliestPacket() after pop = %d, want 20", got)
			}
			l.PopCredit(15)
			if got := l.EarliestCredit(); got != -1 {
				t.Fatalf("EarliestCredit() after pop = %d, want -1", got)
			}
		})
	}
}

func TestNewLinkRejectsBadLatency(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("zero latency accepted")
				}
			}()
			impl.mk(0)
		})
	}
}

// EventLink-specific guard rails: the compact rings panic loudly when the
// contract that sizes them is broken, instead of corrupting events.

func TestEventLinkOverflowPanics(t *testing.T) {
	l := NewEventLink(4, 4, 4) // capacity: 4/4+4 = 5 -> 8 slots
	defer func() {
		if recover() == nil {
			t.Fatal("ring overflow did not panic")
		}
	}()
	for i := int64(0); i < 64; i++ {
		l.PushPacket(100+i, &packet.Packet{}) // never popped: must overflow
	}
}

func TestEventLinkMissedArrivalPanics(t *testing.T) {
	l := NewEventLink(10, 8, 4)
	l.PushPacket(12, &packet.Packet{})
	defer func() {
		if recover() == nil {
			t.Fatal("slept-through arrival did not panic")
		}
	}()
	l.PopPacket(13) // the receiver slept through cycle 12
}

// Property: any schedule of (time, payload) pushes with unique in-window
// times — pushed in increasing time order, as a serializing sender
// produces them — is delivered exactly at its time, by both
// implementations.
func TestLinkScheduleProperty(t *testing.T) {
	for _, impl := range linkImpls {
		t.Run(impl.name, func(t *testing.T) {
			f := func(offsets []uint8) bool {
				l := impl.mk(100)
				seen := map[int64]bool{}
				type ev struct {
					at int64
					id uint64
				}
				var evs []ev
				for i, o := range offsets {
					at := int64(o%100) + 1
					if seen[at] {
						continue
					}
					seen[at] = true
					evs = append(evs, ev{at, uint64(i)})
				}
				sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
				for _, e := range evs {
					l.PushPacket(e.at, &packet.Packet{ID: e.id})
				}
				got := map[int64]uint64{}
				for at := int64(0); at <= 101; at++ {
					if p := l.PopPacket(at); p != nil {
						got[at] = p.ID
					}
				}
				if len(got) != len(evs) {
					return false
				}
				for _, e := range evs {
					if got[e.at] != e.id {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: ring and event links driven by one randomized schedule —
// random per-link latency, random loads respecting the sender spacing
// rule, interleaved same-cycle push/pop like the engines produce — deliver
// identical (cycle, packet) and (cycle, credit) sequences.
func TestEventLinkMatchesRingLinkRandomized(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rnd := rand.New(rand.NewSource(int64(1000 + trial)))
		latency := 1 + rnd.Intn(150)
		pktSpacing := 1 + rnd.Intn(8)
		crdSpacing := 1 + rnd.Intn(8)
		ring := NewLink(latency, pktSpacing)
		event := NewEventLink(latency, pktSpacing, crdSpacing)

		type delivery struct {
			at int64
			id uint64
		}
		type creditDel struct {
			at        int64
			vc, phits int
		}
		var ringPkts, eventPkts []delivery
		var ringCrds, eventCrds []creditDel

		nextPktSend := int64(0)
		nextCrdSend := int64(0)
		var id uint64
		load := 0.1 + 0.8*rnd.Float64()
		for now := int64(0); now < 2000; now++ {
			// Receiver side first (the engines pop arrivals before the
			// link stage pushes new ones).
			if p := ring.PopPacket(now); p != nil {
				ringPkts = append(ringPkts, delivery{now, p.ID})
			}
			if p := event.PopPacket(now); p != nil {
				eventPkts = append(eventPkts, delivery{now, p.ID})
			}
			if vc, phits := ring.PopCredit(now); phits > 0 {
				ringCrds = append(ringCrds, creditDel{now, vc, phits})
			}
			if vc, phits := event.PopCredit(now); phits > 0 {
				eventCrds = append(eventCrds, creditDel{now, vc, phits})
			}
			// Sender side: serialised pushes at the modelled spacing.
			if now >= nextPktSend && rnd.Float64() < load {
				id++
				at := now + int64(pktSpacing) + int64(latency)
				ring.PushPacket(at, &packet.Packet{ID: id})
				event.PushPacket(at, &packet.Packet{ID: id})
				nextPktSend = now + int64(pktSpacing)
			}
			if now >= nextCrdSend && rnd.Float64() < load {
				vc, phits := rnd.Intn(3), 8
				at := now + int64(latency)
				ring.PushCredit(at, vc, phits)
				event.PushCredit(at, vc, phits)
				nextCrdSend = now + int64(crdSpacing)
			}
		}
		if len(ringPkts) != len(eventPkts) {
			t.Fatalf("trial %d (lat %d): %d ring vs %d event packet deliveries",
				trial, latency, len(ringPkts), len(eventPkts))
		}
		for i := range ringPkts {
			if ringPkts[i] != eventPkts[i] {
				t.Fatalf("trial %d (lat %d): delivery %d diverged: ring %+v event %+v",
					trial, latency, i, ringPkts[i], eventPkts[i])
			}
		}
		if len(ringCrds) != len(eventCrds) {
			t.Fatalf("trial %d (lat %d): %d ring vs %d event credit deliveries",
				trial, latency, len(ringCrds), len(eventCrds))
		}
		for i := range ringCrds {
			if ringCrds[i] != eventCrds[i] {
				t.Fatalf("trial %d (lat %d): credit %d diverged: ring %+v event %+v",
					trial, latency, i, ringCrds[i], eventCrds[i])
			}
		}
	}
}
