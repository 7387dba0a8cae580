package refmodel

import (
	"sort"
	"testing"
	"testing/quick"

	"dragonfly/internal/packet"
)

// linkImpls enumerates the link implementations under test: the seed's
// rings, the oracle's only transport.
var linkImpls = []struct {
	name string
	mk   func(latency int) *RingLink
}{
	{"ring", func(latency int) *RingLink { return NewLink(latency, 8) }},
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

// Property: any schedule of (time, payload) pushes with unique in-window
// times — pushed in increasing time order, as a serializing sender
// produces them — is delivered exactly at its time.
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
