package router

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// drop is a binding whose recycle hooks let packets go to the collector.
var drop = Binding{Recycle: func(*packet.Packet) {}, RecycleQueue: func(packet.Queue) {}}

// denseRun builds an h=2 MIN network bound to b's recycle hooks and steps
// every router through `cycles` cycles at full load — every node sends a
// packet every serialisation time to a node of the next group — leaving it
// mid-flight. It returns the Core and the wiring it was built from,
// re-bindable to other recycle hooks (b's Env is ignored).
func denseRun(t *testing.T, cycles int64, b Binding) (*Core, func(Binding) Wiring) {
	return denseRunAt(t, 2, cycles, b, func(src, perGroup, nodes int, _ int64) int { return (src + perGroup + 1) % nodes })
}

// denseRunAt is denseRun on a balanced network of any h, with the
// destination of the packet src generates at cycle now picked by dst.
func denseRunAt(t *testing.T, h int, cycles int64, b Binding, dst func(src, perGroup, nodes int, now int64) int) (*Core, func(Binding) Wiring) {
	t.Helper()
	wiring := wiringAt(t, h, nil)
	w := wiring(b)
	topo, cfg := w.Topo, w.Cfg
	c, err := NewCore(w)
	if err != nil {
		t.Fatal(err)
	}
	c.SetAllSinks(func(ev LinkEvent) { c.PushDue(ev.Router, ev) })
	c.SizeScratch(1)
	p := topo.Params()
	nodes := topo.NumNodes()
	perGroup := nodes / topo.NumGroups()
	for now := int64(0); now < cycles; now++ {
		for r := 0; r < topo.NumRouters(); r++ {
			for i := 0; i < p.P && now%int64(cfg.SerialCycles()) == 0; i++ {
				if c.InjectionBacklog(r, i) >= cfg.InjectionQueuePackets {
					continue
				}
				src := r*p.P + i
				pkt := new(packet.Packet)
				pkt.Reset()
				pkt.ID, pkt.Src, pkt.Dst = uint64(src)<<32|uint64(now), int32(src), int32(dst(src, perGroup, nodes, now))
				pkt.Size, pkt.GenTime = int16(cfg.PacketSize), now
				c.EnqueueInjection(r, now, pkt)
			}
			c.StepRouter(r, now, 0)
		}
	}
	return c, wiring
}

// tableI is Table I's link latencies, 10 local and 100 global cycles.
var tableI = topology.UniformLatency{Local: 10, Global: 100}

// wiringAt returns the wiring of a balanced h network routed by MIN, with
// links timed by model (nil: Table I's uniform latencies), re-bindable to
// any recycle hooks (b's Env is ignored).
func wiringAt(t *testing.T, h int, model topology.LatencyModel) func(Binding) Wiring {
	t.Helper()
	topo := topology.New(topology.Balanced(h))
	mech, err := routing.ByName("MIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LocalVCs, cfg.GlobalVCs = mech.VCNeeds()
	if model == nil {
		model = tableI
	}
	env := &routing.Env{Topo: topo, Cfg: routing.DefaultConfig(),
		PacketSize: cfg.PacketSize, LocalVCs: cfg.LocalVCs, GlobalVCs: cfg.GlobalVCs}
	return func(b Binding) Wiring {
		b.Env = env
		return Wiring{Topo: topo, Cfg: &cfg, Mech: mech, Rng: rng.New(1), Latency: model, Binding: b}
	}
}

// The per-port records are the Core's widest arrays after the VC records:
// their small fields (VC indices, round-robin pointers, the action kind) are
// 8- and 16-bit words, so an input port is 32 bytes and an output port 40.
// And a port holds as many VC records as it has VCs: an h=2 MIN router's 3
// local, 2 global and 2 injection ports hold 3·3 + 2·1 + 2 = 13, not the 21
// a uniform 3-VC stride would.
func TestCoreRecordSizes(t *testing.T) {
	for _, rec := range []struct {
		name       string
		size, want uintptr
	}{
		{"inPort", unsafe.Sizeof(inPort{}), 32},
		{"outPort", unsafe.Sizeof(outPort{}), 40},
	} {
		if rec.size != rec.want {
			t.Errorf("%s is %d bytes, want %d", rec.name, rec.size, rec.want)
		}
	}
	c, _ := denseRun(t, 0, drop)
	if want := 13 * c.nr; len(c.inQ) != want || len(c.outQ) != want {
		t.Errorf("an h=2 MIN Core holds %d input and %d output VC records, want %d of each", len(c.inQ), len(c.outQ), want)
	}
}

// No two steppers write one 128-byte block — the pair of 64-byte lines
// adjacent-line prefetch moves together — so parallel workers do not take
// each other's scratch lines. What a step writes is every array of its
// scratch and its candidate count; the blocks are read off the addresses
// SizeScratch left, at h=6, where the radix-sized arrays fall in one size
// class.
func TestScratchSharesNoBlock(t *testing.T) {
	c, err := NewCore(wiringAt(t, 6, nil)(drop))
	if err != nil {
		t.Fatal(err)
	}
	for _, steppers := range []int{2, 3, 4} {
		c.SizeScratch(steppers)
		owner := map[uintptr]int{}
		for w := range c.scratch {
			s := &c.scratch[w]
			for _, r := range [][2]uintptr{
				{uintptr(unsafe.Pointer(&s.candInN)), unsafe.Sizeof(s.candInN)},
				region(s.cand), region(s.candN), region(s.granted), region(s.candIn),
				region(s.outCand), region(s.outCandN), region(s.outTouched),
			} {
				for b := r[0] / 128; b <= (r[0]+r[1]-1)/128; b++ {
					if o, ok := owner[b]; ok && o != w {
						t.Errorf("%d steppers: steppers %d and %d both write the 128-byte block at %#x", steppers, o, w, b*128)
					}
					owner[b] = w
				}
			}
		}
	}
}

// region is the address and length in bytes of s's elements.
func region[T any](s []T) [2]uintptr {
	var t T
	return [2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s)) * unsafe.Sizeof(t)}
}

// Port indices are 16-bit words in the port and candidate records, so a
// router with more ports than that is refused rather than truncated: p =
// 2^16 nodes on each of a topology's 6 routers is a valid topology.
func TestNewTemplateRefusesRadixPast16Bits(t *testing.T) {
	topo := topology.New(topology.Params{P: 1 << 16, A: 2, H: 1})
	mech, err := routing.ByName("MIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LocalVCs, cfg.GlobalVCs = mech.VCNeeds()
	_, err = NewTemplate(Wiring{Topo: topo, Cfg: &cfg, Mech: mech, Rng: rng.New(1)})
	if err == nil || !strings.Contains(err.Error(), "must fit 16 bits") {
		t.Fatalf("a %d-port router: got error %v, want one saying a port index must fit 16 bits", topo.NumPorts(), err)
	}
}

// A restore that recycles a retired Core hands the packets that Core still
// held — the retired run's in-flight traffic — back through the RETIRED
// binding's RecycleQueue before it drops them: that network and its free
// list are the ones the restored run generates from. A queue goes back
// whole, still linked, and nothing goes back a packet at a time. Pinned by
// counting: every packet the retired Core holds, in each of the three kinds
// of packet queue, is recycled exactly once, and the new binding sees none
// of them.
func TestCloneRecyclesRetiredPackets(t *testing.T) {
	recycled := map[*packet.Packet]int{}
	delivered := 0
	// A dense sequential run at full load, abandoned mid-flight.
	retired, wiring := denseRun(t, 60, Binding{
		Recycle: func(*packet.Packet) { delivered++ },
		RecycleQueue: func(q packet.Queue) {
			q.Each(func(p *packet.Packet) { recycled[p]++ })
		},
	})
	held := map[*packet.Packet]bool{}
	var perKind [3]int
	retired.eachQueue(func(kind, _ int, q *packet.Queue) {
		q.Each(func(p *packet.Packet) {
			if held[p] {
				t.Fatalf("packet %v sits in two queues", p)
			}
			held[p] = true
			perKind[kind]++
		})
	})
	for kind, n := range perKind {
		if n == 0 {
			t.Fatalf("the abandoned run holds no packet in queues of kind %d (input VCs, output VCs, arrivals): %v", kind, perKind)
		}
	}
	if len(recycled) != 0 {
		t.Fatalf("the run itself recycled %d packets as queues", len(recycled))
	}
	delivered = 0 // deliveries of the abandoned run itself

	tmpl, err := NewTemplate(wiring(drop))
	if err != nil {
		t.Fatal(err)
	}
	restored := tmpl.Clone(retired, wiring(Binding{
		Recycle:      func(p *packet.Packet) { t.Errorf("packet %v recycled through the new binding", p) },
		RecycleQueue: func(q packet.Queue) { t.Errorf("queue at %v recycled through the new binding", q.Front()) },
	}).Binding)
	if restored != retired {
		t.Fatal("Clone did not reuse the retired Core")
	}
	if delivered != 0 {
		t.Fatalf("Clone recycled %d packets one at a time, not a queue at a time", delivered)
	}
	if len(recycled) != len(held) {
		t.Fatalf("%d packets recycled, the retired Core held %d (%v per kind)", len(recycled), len(held), perKind)
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

// stateDiff names the first state array in which two Cores differ, or
// returns "" — every array a run reads or writes, the ones StateVector
// leaves out (masks, rings, settle gates, RNG streams, accumulators)
// included.
func stateDiff(a, b *Core) string {
	for _, d := range []struct {
		name string
		same bool
	}{
		{"inOccMask", slices.Equal(a.inOccMask, b.inOccMask)},
		{"outOccMask", slices.Equal(a.outOccMask, b.outOccMask)},
		{"arrPendMask", slices.Equal(a.arrPendMask, b.arrPendMask)},
		{"crdPendMask", slices.Equal(a.crdPendMask, b.crdPendMask)},
		{"starved", slices.Equal(a.starved, b.starved)},
		{"inP", slices.Equal(a.inP, b.inP)},
		{"outP", slices.Equal(a.outP, b.outP)},
		{"inQ", slices.Equal(a.inQ, b.inQ)},
		{"outQ", slices.Equal(a.outQ, b.outQ)},
		{"arrQ", slices.Equal(a.arrQ, b.arrQ)},
		{"crdQ", slices.Equal(a.crdQ, b.crdQ)},
		{"bookAt", slices.Equal(a.bookAt, b.bookAt)},
		{"arrAt", slices.Equal(a.arrAt, b.arrAt)},
		{"rnd", slices.Equal(a.rnd, b.rnd)},
		{"stats", slices.Equal(a.stats, b.stats)},
		{"jobData", slices.Equal(a.jobData, b.jobData)},
		{"liveData", slices.Equal(a.liveData, b.liveData)},
		{"crdData length", len(a.crdData) == len(b.crdData)},
		{"lost", a.lost == b.lost},
	} {
		if !d.same {
			return d.name
		}
	}
	for r := 0; r < a.nr; r++ {
		for k, q := range []*dueQueue{&a.relDue[r], &a.xferDue[r], &b.relDue[r], &b.xferDue[r]} {
			if len(q.q) != q.head {
				return fmt.Sprintf("router %d calendar %d", r, k)
			}
		}
		if d := wordDiff(a, b, r); d != "" {
			return fmt.Sprintf("router %d %s", r, d)
		}
	}
	return ""
}

// wordDiff names the first word of router r's state vector in which a
// differs from b, with both values ("end" past a vector), or returns "".
func wordDiff(a, b *Core, r int) string {
	va, vb := a.StateVector(r, nil), b.StateVector(r, nil)
	i := 0
	for i < len(va) && i < len(vb) && va[i] == vb[i] {
		i++
	}
	if i == len(va) && i == len(vb) {
		return ""
	}
	at := func(v []int64) string {
		if i < len(v) {
			return strconv.FormatInt(v[i], 10)
		}
		return "end"
	}
	return fmt.Sprintf("%s: %s != %s", a.StateWord(r, i), at(va), at(vb))
}

// A template holds what an empty network cannot compute — wiring and RNG
// streams — and no state array. Cloning from it resets the destination to
// the empty network NewCore builds, array for array, whatever it is cloned
// into: nothing, a clean Core, one retired mid-flight, or one of another
// shape retired mid-flight (h=3 at full load, whose arrays the h=2 restore
// reslices down over stale contents).
func TestTemplateCloneIsNewCore(t *testing.T) {
	_, wiring := denseRun(t, 0, drop)
	tmpl, err := NewTemplate(wiring(drop))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		name string
		n    int
	}{
		{"masks", len(tmpl.inOccMask) + len(tmpl.outOccMask) + len(tmpl.arrPendMask) + len(tmpl.crdPendMask) + len(tmpl.starved)},
		{"ports", len(tmpl.inP) + len(tmpl.outP)},
		{"queues", len(tmpl.inQ) + len(tmpl.outQ) + len(tmpl.arrQ)},
		{"credit rings", len(tmpl.crdQ) + len(tmpl.crdData)},
		{"settle gates", len(tmpl.bookAt) + len(tmpl.arrAt)},
		{"calendars", len(tmpl.relDue) + len(tmpl.xferDue) + len(tmpl.dueData)},
		{"accumulators", len(tmpl.stats) + len(tmpl.jobData) + len(tmpl.liveData)},
		{"scratch", len(tmpl.scratch)},
	} {
		if a.n != 0 {
			t.Errorf("the template holds %d entries of %s", a.n, a.name)
		}
	}
	want, err := NewCore(wiring(drop))
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(src, _, nodes int, now int64) int {
		return int((uint64(src)*2654435761 + uint64(now)*40503 + 1) % uint64(nodes))
	}
	clean, _ := denseRun(t, 0, drop)
	dirty, _ := denseRun(t, 60, drop)
	other, _ := denseRunAt(t, 3, 200, drop, uniform)
	if dirty.InFlight() == 0 || other.InFlight() == 0 {
		t.Fatal("a retired run holds no packet: the test resets nothing")
	}
	for _, into := range []struct {
		name string
		c    *Core
	}{{"nothing", nil}, {"a clean Core", clean}, {"a dirty Core", dirty}, {"a dirty h=3 Core", other}} {
		got := tmpl.Clone(into.c, wiring(drop).Binding)
		if d := stateDiff(got, want); d != "" {
			t.Errorf("cloned from the template into %s: %s differs from NewCore's", into.name, d)
		}
	}
}

// When a state-only event is applied leaves no trace: settling a sleeping
// router cycle by cycle (what the dense oracle does), in one go at the end,
// or at any cycles in between yields the same state, word for word — every
// timestamp an arrival leaves behind is the event's own, a release and a
// credit leave none. A second Settle of the same cycle finds nothing.
func TestSettleIsIdempotentInTime(t *testing.T) {
	const from, span = 60, 40
	src, wiring := denseRun(t, from, drop)
	variants := map[string]func(now int64) bool{
		"every cycle":       func(int64) bool { return true },
		"once, at the end":  func(now int64) bool { return now == from+span-1 },
		"every third cycle": func(now int64) bool { return now%3 == 0 || now == from+span-1 },
	}
	cores := map[string]*Core{}
	var kinds [3]int // releases, credits, arrivals pending in the source
	for r := 0; r < src.nr; r++ {
		kinds[0] += len(src.relDue[r].q) - src.relDue[r].head
	}
	for pi := range src.arrQ {
		kinds[1] += int(src.crdQ[pi].qlen)
		kinds[2] += int(src.arrQ[pi].n)
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("the source run has nothing pending of kind %d (releases, credits, arrivals): %v", k, kinds)
		}
	}
	for name, due := range variants {
		c := src.Clone(nil, wiring(drop).Binding)
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
		cores[name] = c
	}
	want, changed := cores["every cycle"], false
	for r := 0; r < src.nr; r++ {
		for name, got := range cores {
			if d := wordDiff(got, want, r); d != "" {
				t.Fatalf("router %d: settling %s leaves a different state than settling every cycle, %s", r, name, d)
			}
		}
		changed = changed || wordDiff(want, src, r) != ""
	}
	if !changed {
		t.Fatal("settling changed no router's state: the test compares nothing")
	}
}

// A port gets back every credit it is owed, however long its router sleeps
// through them. With lazy settling a router that has nothing queued at a
// port is not woken for the credits returning there, so its ring fills; the
// ring holds only what the link can have in flight, fewer slots than the
// port is owed, and each credit that finds it full applies the head, which
// is due by then. The port here has filled every downstream VC; all the
// credits come back, one per crossbar time, before the router is looked at
// again.
func TestCreditRingHoldsEveryOutstandingCredit(t *testing.T) {
	c, _ := denseRun(t, 0, drop)
	const r, p = 3, 0 // a local port
	pi := r*c.np + p
	perVC := c.downCapVC[p] / int32(c.size)
	for vc := 0; vc < int(c.nOutVC[p]); vc++ {
		c.outQ[c.vcBase(r, p)+vc].credits -= perVC * int32(c.size)
		c.outP[pi].free -= perVC * int32(c.size)
	}
	owed := int(perVC) * int(c.nOutVC[p])
	if owed <= 6 {
		t.Fatalf("port owes %d credits at most: the test needs more than the old ring held", owed)
	}
	if n := int(c.crdQ[pi].qcap); n >= owed {
		t.Fatalf("the ring has %d slots for the %d credits owed: the push-time apply goes untested", n, owed)
	}
	at := int64(100)
	for k := 0; k < owed; k++ {
		if wake := c.PushDue(r, LinkEvent{Router: r, port: p, at: at, Credit: true, pvc: int32(k % int(c.nOutVC[p]))}); wake >= 0 {
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

// shortGlobal times an h=2 MIN network's global links at 40 cycles, so a
// global ring (⌊(40+40)/4⌋+1 = 21 slots) is shorter than the 32 credits a
// global port can be owed, as a local ring (⌊(10+1)/4⌋+1 = 3) is shorter
// than its 12.
var shortGlobal = topology.UniformLatency{Local: 10, Global: 40}

// A credit ring holds what its link can have in flight: min(crdCap,
// ⌊(lat+slack)/xbar⌋+1) slots, with slack 1 on a local port and the
// lookahead on a global one. The size is per wired output: under groupskew
// every global cable has a latency of its own — 40, 60, 80 or 100 cycles
// at h=2, four group distances — and so a ring of its own size, the longest
// cable's capped by the 32 credits the port can be owed. The arena holds
// these rings and nothing else.
func TestCreditRingCapacity(t *testing.T) {
	for _, tc := range []struct {
		name          string
		model         topology.LatencyModel
		local, global []int32 // the ring sizes, ascending
	}{
		{"uniform", shortGlobal, []int32{3}, []int32{21}},
		{"groupskew", topology.GroupSkewLatency{Local: 10, GlobalBase: 40, GlobalStep: 20}, []int32{3}, []int32{21, 26, 31, 32}},
	} {
		c, err := NewCore(wiringAt(t, 2, tc.model)(drop))
		if err != nil {
			t.Fatal(err)
		}
		look := int64(math.MaxInt64)
		for pi, w := range c.outW {
			if w.peer >= 0 && c.class[pi%c.np] == topology.GlobalPort {
				look = min(look, int64(w.lat))
			}
		}
		sizes := map[topology.PortClass]map[int32]bool{topology.LocalPort: {}, topology.GlobalPort: {}}
		slots := 0
		for pi, w := range c.outW {
			p, q := pi%c.np, c.crdQ[pi]
			if w.peer < 0 {
				if q.qcap != 0 {
					t.Errorf("%s: unwired output %d of router %d has a %d-slot ring", tc.name, p, pi/c.np, q.qcap)
				}
				continue
			}
			slack := int64(1)
			if c.class[p] == topology.GlobalPort {
				slack = look
			}
			if want := min(int64(c.crdCap[p]), (int64(w.lat)+slack)/c.xbar+1); int64(q.qcap) != want {
				t.Errorf("%s: router %d output %d (latency %d): a %d-slot ring, want %d", tc.name, pi/c.np, p, w.lat, q.qcap, want)
			}
			sizes[c.class[p]][q.qcap] = true
			slots += int(q.qcap)
		}
		if slots != len(c.crdData) {
			t.Errorf("%s: the rings hold %d slots, the arena %d", tc.name, slots, len(c.crdData))
		}
		for class, want := range map[topology.PortClass][]int32{topology.LocalPort: tc.local, topology.GlobalPort: tc.global} {
			got := slices.Sorted(maps.Keys(sizes[class]))
			if !slices.Equal(got, want) {
				t.Errorf("%s: port class %d rings of %v slots, want %v", tc.name, class, got, want)
			}
		}
	}
}

// owingCore returns an h=2 MIN network (shortGlobal links) whose router r
// has sent its downstream buffers full on every wired output and is owed
// every credit back.
func owingCore(t *testing.T, r int) *Core {
	t.Helper()
	c, err := NewCore(wiringAt(t, 2, shortGlobal)(drop))
	if err != nil {
		t.Fatal(err)
	}
	for p := range c.np {
		if c.outW[r*c.np+p].peer < 0 {
			continue
		}
		for vc := range int(c.nOutVC[p]) {
			c.outQ[c.vcBase(r, p)+vc].credits = 0
		}
		c.outP[r*c.np+p].free = 0
	}
	return c
}

// A full ring whose head is due applies the head at push time, and no reader
// can tell: a router that settles nothing until every credit is back — its
// rings fill, and each further credit finds the head due — ends in the state
// of one settled every cycle, word for word. Every wired output, local and
// global, gets all it is owed back, one credit per crossbar time, pushed in
// the cycle its downstream router sends it.
func TestFullRingAppliesItsDueHead(t *testing.T) {
	const r = 3
	lazy, eager := owingCore(t, r), owingCore(t, r)
	const from = 100
	end := from + int64(slices.Max(lazy.crdCap))*lazy.xbar // the last credit is sent before this
	for now := int64(from); now < end; now++ {
		eager.Settle(r, now-1) // the receiver is at most one cycle behind
		if (now-from)%lazy.xbar != 0 {
			continue
		}
		k := (now - from) / lazy.xbar
		for p := range lazy.np {
			if w := lazy.outW[r*lazy.np+p]; w.peer >= 0 && k < int64(lazy.crdCap[p]) {
				ev := LinkEvent{Router: r, port: p, at: now + int64(w.lat), Credit: true, pvc: int32(k % int64(lazy.nOutVC[p]))}
				lazy.PushDue(r, ev)
				eager.PushDue(r, ev)
			}
		}
	}
	for p := range lazy.np {
		pi := r*lazy.np + p
		if lazy.outW[pi].peer < 0 {
			continue
		}
		q := lazy.crdQ[pi]
		if q.qlen != q.qcap {
			t.Fatalf("output %d: the ring holds %d of its %d slots after every credit came back unsettled", p, q.qlen, q.qcap)
		}
		if applied := lazy.outP[pi].free / int32(lazy.size); applied != lazy.crdCap[p]-q.qcap {
			t.Fatalf("output %d: %d credits applied at push time, want the %d that overran the ring", p, applied, lazy.crdCap[p]-q.qcap)
		}
	}
	final := end + lazy.maxLat
	lazy.Settle(r, final)
	eager.Settle(r, final)
	if d := wordDiff(lazy, eager, r); d != "" {
		t.Fatalf("applying due heads at push time leaves a different state than settling every cycle, %s", d)
	}
	if got := lazy.outP[r*lazy.np].free; got != lazy.downTotal[0] {
		t.Fatalf("output 0 holds %d phits of credit after all came back, want %d", got, lazy.downTotal[0])
	}
}

// The event calendars never leave their windows: at most one release per
// output and one transfer per input are pending at once, so np entries hold
// them, and a window that fills up is compacted in place instead of growing
// a private buffer. After a saturated h=3 run — uniform traffic at full
// load, which keeps most outputs sending back to back, so most calendars
// fill their window and compact many times over — every calendar still sits
// in its own np-entry window of the one arena.
func TestCalendarsStayInTheirWindows(t *testing.T) {
	uniform := func(src, _, nodes int, now int64) int {
		return int((uint64(src)*2654435761 + uint64(now)*40503 + 1) % uint64(nodes))
	}
	c, _ := denseRunAt(t, 3, 600, drop, uniform)
	for r := 0; r < c.nr; r++ {
		for k, d := range []*dueQueue{&c.relDue[r], &c.xferDue[r]} {
			pos := (2*r + k) * c.np
			if cap(d.q) != c.np || &d.q[:1][0] != &c.dueData[pos] {
				t.Fatalf("router %d calendar %d left its window (capacity %d, want %d)", r, k, cap(d.q), c.np)
			}
		}
	}
}

// mustPanic runs fn and requires it to panic with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// Every queue is held to a capacity — an input VC to the packets its buffer
// holds, an output VC to the output buffer's, the packets in flight towards
// a port to what the credit protocol lets a sender owe, the credits to what
// their link can have in flight — and overrunning one panics with the
// message it had as a ring. Each case breaks the contract of its caller: a
// source that ignores the backlog bound, a grant that ignores the output's
// occupancy, a sender that ignores its credits, and one that returns credits
// a cycle apart, faster than its crossbar frees the buffer — the ring fills
// with credits none of which is due yet, and none is applied early.
func TestQueueBoundsStillHold(t *testing.T) {
	fresh := func() *Core {
		c, _ := denseRun(t, 0, drop)
		return c
	}
	pkt := func(c *Core) *packet.Packet {
		p := new(packet.Packet)
		p.Reset()
		p.Size = int16(c.size)
		return p
	}
	t.Run("input", func(t *testing.T) {
		c := fresh()
		mustPanic(t, "input ring overflow", func() {
			for k := 0; k <= c.cfg.InjectionQueuePackets; k++ {
				c.EnqueueInjection(0, 0, pkt(c))
			}
		})
		if got := c.InjectionBacklog(0, 0); got != c.cfg.InjectionQueuePackets {
			t.Fatalf("source queue holds %d packets, want its bound %d", got, c.cfg.InjectionQueuePackets)
		}
	})
	t.Run("output", func(t *testing.T) {
		c := fresh()
		mustPanic(t, "output ring overflow", func() {
			for k := int32(0); k <= c.outQCap; k++ {
				c.outQPush(0, pkt(c))
			}
		})
	})
	const r, p = 3, 0 // a local input (arrivals) and output (credits)
	t.Run("arrivals", func(t *testing.T) {
		c := fresh()
		mustPanic(t, "link event ring full", func() {
			for k := int32(0); k <= c.arrCap[p]; k++ {
				c.PushDue(r, LinkEvent{Router: r, port: p, at: 100 + int64(k), pkt: pkt(c)})
			}
		})
		if got := c.arrQ[r*c.np+p].n; got != c.arrCap[p] {
			t.Fatalf("%d packets in flight towards the port, want its bound %d", got, c.arrCap[p])
		}
	})
	t.Run("credits", func(t *testing.T) {
		for _, p := range []int{p, topology.New(topology.Balanced(2)).Params().A - 1} { // a local and a global output
			c := owingCore(t, r)
			pi := r*c.np + p
			q := &c.crdQ[pi]
			mustPanic(t, "link event ring full", func() {
				for k := int64(0); k <= int64(q.qcap); k++ {
					c.PushDue(r, LinkEvent{Router: r, port: p, at: 100 + k, Credit: true})
				}
			})
			if q.qlen != q.qcap || c.outP[pi].free != 0 {
				t.Fatalf("output %d: %d of %d slots held, %d phits of credit applied after the overrun", p, q.qlen, q.qcap, c.outP[pi].free)
			}
		}
	})
}
