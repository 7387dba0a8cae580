package packet

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestReset(t *testing.T) {
	p := &Packet{
		ID: 7, Src: 1, Dst: 2, Size: 8,
		Phase: PhaseToGroup, IntNode: 3, IntGroup: 4,
		Misrouted: true, LocalMisrouted: true, SrcDecided: true,
		LocalHops: 2, GlobalHops: 1, VC: 3,
		GenTime: 10, InjectTime: 20, DeliverTime: 30,
		MinLocal: 2, MinGlobal: 1,
		WaitInj: 5, WaitLocal: 6, WaitGlobal: 7,
		ReadyAt: 8, EnqueuedAt: 9,
	}
	p.Reset()
	if p.ID != 0 || p.Src != 0 || p.Dst != 0 || p.Size != 0 {
		t.Error("Reset left identity fields set")
	}
	if p.Phase != PhaseMinimal || p.Misrouted || p.LocalMisrouted || p.SrcDecided {
		t.Error("Reset left routing state set")
	}
	if p.IntNode != -1 || p.IntGroup != -1 {
		t.Errorf("Reset should set intermediates to -1, got %d/%d", p.IntNode, p.IntGroup)
	}
	if p.LocalHops != 0 || p.GlobalHops != 0 || p.VC != 0 {
		t.Error("Reset left hop counters set")
	}
	if p.WaitInj != 0 || p.WaitLocal != 0 || p.WaitGlobal != 0 {
		t.Error("Reset left wait accumulators set")
	}
}

func TestTotalLatency(t *testing.T) {
	p := &Packet{GenTime: 100, DeliverTime: 350}
	if got := p.TotalLatency(); got != 250 {
		t.Errorf("TotalLatency() = %d, want 250", got)
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseMinimal: "minimal",
		PhaseToNode:  "to-node",
		PhaseToGroup: "to-group",
	}
	for ph, want := range cases {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, got, want)
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase String() empty")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 3, Src: 1, Dst: 2}
	if p.String() == "" {
		t.Error("String() empty")
	}
}

func TestActionNone(t *testing.T) {
	p := &Packet{Phase: PhaseMinimal, IntGroup: -1}
	Action{Kind: ActionNone}.Apply(p)
	if p.Phase != PhaseMinimal || p.Misrouted || p.IntGroup != -1 {
		t.Error("ActionNone mutated the packet")
	}
}

func TestActionMisrouteToGroup(t *testing.T) {
	p := &Packet{Phase: PhaseMinimal, IntGroup: -1}
	Action{Kind: ActionMisrouteToGroup, Group: 5}.Apply(p)
	if p.Phase != PhaseToGroup {
		t.Errorf("phase = %v, want to-group", p.Phase)
	}
	if p.IntGroup != 5 {
		t.Errorf("IntGroup = %d, want 5", p.IntGroup)
	}
	if !p.Misrouted {
		t.Error("Misrouted not set")
	}
}

func TestActionLocalMisroute(t *testing.T) {
	p := &Packet{}
	Action{Kind: ActionLocalMisroute}.Apply(p)
	if !p.LocalMisrouted {
		t.Error("LocalMisrouted not set")
	}
	if p.Misrouted || p.Phase != PhaseMinimal {
		t.Error("local misroute must not change global routing state")
	}
}

// Property: applying ActionMisrouteToGroup always leaves a consistent
// misrouted state regardless of prior state.
func TestActionProperty(t *testing.T) {
	f := func(group uint8, pre bool) bool {
		p := &Packet{Misrouted: pre, IntGroup: -1}
		Action{Kind: ActionMisrouteToGroup, Group: int(group)}.Apply(p)
		return p.Misrouted && p.IntGroup == int(group) && p.Phase == PhaseToGroup
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A packet stays in the 192-byte size class: the queue link rides in the
// bytes the allocator hands out for a packet anyway.
func TestPacketFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 192 {
		t.Fatalf("Packet is %d bytes, want at most 192", size)
	}
}

// A Queue is FIFO, survives draining to empty and refilling, its Clone
// holds copies in the same order, linked among themselves only, and a queue
// handed over by its head comes apart packet by packet.
func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Front() != nil {
		t.Fatal("zero Queue not empty")
	}
	ids := func(q *Queue) (got []uint64) {
		q.Each(func(p *Packet) { got = append(got, p.ID) })
		return got
	}
	for round := 0; round < 2; round++ {
		for id := uint64(1); id <= 3; id++ {
			q.Push(&Packet{ID: id})
		}
		c := q.Clone()
		if got := ids(&c); !slices.Equal(got, []uint64{1, 2, 3}) {
			t.Fatalf("round %d: clone holds %v", round, got)
		}
		if c.Front() == q.Front() {
			t.Fatal("Clone shares packets with its source")
		}
		c.Pop()
		if got := ids(&q); !slices.Equal(got, []uint64{1, 2, 3}) {
			t.Fatalf("round %d: popping the clone changed the source to %v", round, got)
		}
		for id := uint64(1); id <= 3; id++ {
			if p := q.Pop(); p.ID != id || p.next != nil {
				t.Fatalf("round %d: popped %d (linked: %v), want %d", round, p.ID, p.next != nil, id)
			}
		}
		if q.Front() != nil || q.tail != nil {
			t.Fatalf("round %d: drained queue not empty", round)
		}
	}
	// A queue handed over whole is taken apart from its head.
	for id := uint64(1); id <= 3; id++ {
		q.Push(&Packet{ID: id})
	}
	var got []uint64
	for p := q.Front(); p != nil; {
		got = append(got, p.ID)
		rest := p.Unchain()
		if p.next != nil {
			t.Fatal("Unchain left the packet linked")
		}
		p = rest
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("unchaining from the head yields %v", got)
	}
}
