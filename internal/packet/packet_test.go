package packet

import (
	"slices"
	"sync"
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
	Action{Kind: actionNone}.Apply(p)
	if p.Phase != PhaseMinimal || p.Misrouted || p.IntGroup != -1 {
		t.Error("actionNone mutated the packet")
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
		return p.Misrouted && p.IntGroup == int32(group) && p.Phase == PhaseToGroup
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A packet is two cache lines: it stays in the allocator's 128-byte size
// class (whose objects are 128-byte aligned), with the queue link first.
func TestPacketFitsItsSizeClass(t *testing.T) {
	var p Packet
	if size := unsafe.Sizeof(p); size > 128 {
		t.Fatalf("Packet is %d bytes, want at most 128", size)
	}
	if off := unsafe.Offsetof(p.next); off != 0 {
		t.Fatalf("next sits at byte %d, want 0", off)
	}
	// Every field a hop reads or writes — queueing, allocation, the link
	// stage, the VC ladder, minimal routing — is in the first line.
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"ReadyAt", unsafe.Offsetof(p.ReadyAt), unsafe.Sizeof(p.ReadyAt)},
		{"EnqueuedAt", unsafe.Offsetof(p.EnqueuedAt), unsafe.Sizeof(p.EnqueuedAt)},
		{"LinkLat", unsafe.Offsetof(p.LinkLat), unsafe.Sizeof(p.LinkLat)},
		{"WaitLocal", unsafe.Offsetof(p.WaitLocal), unsafe.Sizeof(p.WaitLocal)},
		{"WaitGlobal", unsafe.Offsetof(p.WaitGlobal), unsafe.Sizeof(p.WaitGlobal)},
		{"Src", unsafe.Offsetof(p.Src), unsafe.Sizeof(p.Src)},
		{"Dst", unsafe.Offsetof(p.Dst), unsafe.Sizeof(p.Dst)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
		{"Phase", unsafe.Offsetof(p.Phase), unsafe.Sizeof(p.Phase)},
		{"Misrouted", unsafe.Offsetof(p.Misrouted), unsafe.Sizeof(p.Misrouted)},
		{"LocalMisrouted", unsafe.Offsetof(p.LocalMisrouted), unsafe.Sizeof(p.LocalMisrouted)},
		{"LocalHops", unsafe.Offsetof(p.LocalHops), unsafe.Sizeof(p.LocalHops)},
		{"GlobalHops", unsafe.Offsetof(p.GlobalHops), unsafe.Sizeof(p.GlobalHops)},
		{"VC", unsafe.Offsetof(p.VC), unsafe.Sizeof(p.VC)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > 64 {
			t.Errorf("per-hop field %s ends at byte %d, past the first cache line", f.name, end)
		}
	}
}

// A Queue is FIFO, survives draining to empty and refilling, its Clone
// holds copies in the same order, linked among themselves only.
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
}

// A Free list allocates only when it is empty, hands out the packet freed
// last first, takes a whole queue back in one splice — its packets come
// out again one by one, in queue order, unlinked — and counts what it
// allocated and what it holds.
func TestFree(t *testing.T) {
	var f Free
	a, b := f.Get(), f.Get()
	if a == b {
		t.Fatal("an empty list handed out one packet twice")
	}
	f.Put(a)
	f.Put(b)
	if made, free := f.Counts(); made != 2 || free != 2 {
		t.Fatalf("counts %d made, %d free; want 2, 2", made, free)
	}
	if p := f.Get(); p != b {
		t.Fatal("Get did not hand out the packet freed last")
	}
	var q Queue
	for id := uint64(1); id <= 3; id++ {
		q.Push(&Packet{ID: id})
	}
	f.PutQueue(q)
	f.PutQueue(Queue{})
	var got []uint64
	for range 3 {
		p := f.Get()
		if p.next != nil {
			t.Fatalf("packet %d handed out still linked", p.ID)
		}
		got = append(got, p.ID)
	}
	if !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("a queue put back whole comes out as %v", got)
	}
	if p := f.Get(); p != a {
		t.Fatal("the queue's packets did not sit on top of the list")
	}
	if made, free := f.Counts(); made != 2 || free != 0 {
		t.Fatalf("counts %d made, %d free; want 2, 0 (the queue's packets were not the list's)", made, free)
	}
	f.Get()
	if made, _ := f.Counts(); made != 3 {
		t.Fatalf("Get on an empty list counts %d made, want 3", made)
	}
}

// Generation and delivery run on every engine worker, so a Free is taken
// from and returned to by several goroutines at once, a packet or a whole
// queue at a time; when they are done every packet it made is back.
func TestFreeConcurrent(t *testing.T) {
	var f Free
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				var q Queue
				for range 1 + (g+i)%4 {
					q.Push(f.Get())
				}
				if i%2 == 0 {
					f.PutQueue(q)
					continue
				}
				for q.Front() != nil {
					f.Put(q.Pop())
				}
			}
		}()
	}
	wg.Wait()
	if made, free := f.Counts(); made != free || made > 4*4 {
		t.Fatalf("%d packets made, %d free; want all back, and at most the 16 ever held at once", made, free)
	}
}
