package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
)

// emit pushes one event through a tracer hook.
func emit(fn router.TraceFn, now int64, kind router.TraceKind, id uint64, rid, port, vc int) {
	p := &packet.Packet{ID: id, Src: int32(id >> 32), Dst: 7, LocalHops: 1, GlobalHops: 1}
	fn(now, kind, p, rid, port, vc)
}

func TestTracerSamplesByPacketID(t *testing.T) {
	tr := NewTracer(2, 2, 0)
	h0 := tr.Hook(0)
	emit(h0, 10, router.TraceGrant, 4, 0, 1, 0) // 4%2==0: kept
	emit(h0, 11, router.TraceGrant, 5, 0, 1, 0) // 5%2!=0: skipped
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (odd IDs not sampled)", tr.Len())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
}

func TestTracerCapCountsDrops(t *testing.T) {
	tr := NewTracer(1, 1, 2)
	h := tr.Hook(0)
	for i := 0; i < 5; i++ {
		emit(h, int64(i), router.TraceGrant, 0, 0, 0, 0)
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 3", tr.Len(), tr.Dropped())
	}
}

// The merged stream orders by (cycle, router) with stable within-router
// order — including delivery events recorded with a future timestamp.
func TestTracerMergeOrder(t *testing.T) {
	tr := NewTracer(3, 1, 0)
	h0, h1, h2 := tr.Hook(0), tr.Hook(1), tr.Hook(2)
	emit(h2, 5, router.TraceGrant, 1, 2, 0, 0)
	emit(h0, 9, router.TraceDeliver, 1, 0, 0, 0) // future-stamped delivery
	emit(h0, 5, router.TraceGrant, 2, 0, 1, 0)
	emit(h1, 3, router.TraceLinkSend, 1, 1, 0, 0)
	evs := tr.Events()
	want := []struct {
		now int64
		rid int32
	}{{3, 1}, {5, 0}, {5, 2}, {9, 0}}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Now != w.now || evs[i].Router != w.rid {
			t.Fatalf("event %d = (t%d, R%d), want (t%d, R%d)",
				i, evs[i].Now, evs[i].Router, w.now, w.rid)
		}
	}
	ids, byID := perPacket(evs)
	if len(ids) != 2 || ids[0] != 1 || len(byID[1]) != 3 {
		t.Fatalf("perPacket: ids=%v, |byID[1]|=%d", ids, len(byID[1]))
	}
}

// The Perfetto exporter must produce the Chrome trace-event schema:
// a traceEvents array where every packet row opens with thread metadata,
// each router visit is a complete slice spanning grant→send, and each
// delivery is a thread-scoped instant.
func TestPerfettoSchema(t *testing.T) {
	events := []Event{
		{Now: 10, ID: 8, Kind: router.TraceGrant, Router: 3, Port: 2, VC: 0, Src: 1, Dst: 9},
		{Now: 14, ID: 8, Kind: router.TraceLinkSend, Router: 3, Port: 2, VC: 0, Src: 1, Dst: 9},
		{Now: 120, ID: 8, Kind: router.TraceDeliver, Router: 5, Port: 1, VC: 0, Src: 1, Dst: 9},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if file.Unit == "" {
		t.Error("displayTimeUnit missing")
	}
	if len(file.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3 (metadata + slice + instant)", len(file.TraceEvents))
	}
	meta, slice, instant := file.TraceEvents[0], file.TraceEvents[1], file.TraceEvents[2]
	if meta["ph"] != "M" || meta["name"] != "thread_name" {
		t.Errorf("first event must be thread metadata, got %v", meta)
	}
	if name := meta["args"].(map[string]any)["name"]; name != "pkt 1->9 #8" {
		t.Errorf("thread name = %v, want pkt 1->9 #8", name)
	}
	if slice["ph"] != "X" || slice["ts"].(float64) != 10 || slice["dur"].(float64) != 5 {
		t.Errorf("hop slice wrong: %v", slice)
	}
	if slice["name"] != "R3:p2 vc0" {
		t.Errorf("slice name = %v", slice["name"])
	}
	if instant["ph"] != "i" || instant["s"] != "t" || instant["ts"].(float64) != 120 {
		t.Errorf("delivery instant wrong: %v", instant)
	}
	for _, e := range file.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Errorf("event missing required key %q: %v", key, e)
			}
		}
	}
}

// fakeSource is a scripted telemetry source: two groups, one job, with
// counters advanced by the test between samples.
type fakeSource struct {
	shape Shape
	snap  Snapshot
}

func (f *fakeSource) Shape() Shape { return f.shape }

func (f *fakeSource) Collect(_ int64, s *Snapshot) {
	s.InFlight = f.snap.InFlight
	s.LocalBusy, s.GlobalBusy = f.snap.LocalBusy, f.snap.GlobalBusy
	s.CreditStalls = f.snap.CreditStalls
	copy(s.Groups, f.snap.Groups)
	copy(s.Jobs, f.snap.Jobs)
	if f.snap.PB != nil {
		if s.PB == nil {
			s.PB = make([]uint64, len(f.snap.PB))
		}
		copy(s.PB, f.snap.PB)
		s.PBSet = f.snap.PBSet
	}
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		shape: Shape{
			Groups: 2, Routers: 8, Nodes: 16, Jobs: 1, NodesPerGroup: 8,
			PacketSize: 8, LocalLinks: 24, GlobalLinks: 16, MeasureFrom: 100,
		},
		snap: Snapshot{
			Groups: make([]GroupCounters, 2),
			Jobs:   make([]JobCounters, 1),
			PB:     []uint64{0},
		},
	}
}

func TestProbesRatesAndSummary(t *testing.T) {
	var buf bytes.Buffer
	p := NewProbes(ProbeConfig{Every: 100, Out: &buf})
	src := newFakeSource()

	p.Observe(0, src) // warm-up sample: everything zero

	src.snap.InFlight = 40
	src.snap.Groups[0] = GroupCounters{Injected: 0, DeliveredPhits: 0, InQPhits: 100, OutQPhits: 20}
	src.snap.PB = []uint64{0x3}
	src.snap.PBSet = 2
	p.Observe(100, src) // prevAt=0 < MeasureFrom: still unrated

	src.snap.Groups[0] = GroupCounters{Injected: 10, DeliveredPhits: 80, InQPhits: 60, OutQPhits: 0}
	src.snap.Groups[1] = GroupCounters{Injected: 20, DeliveredPhits: 160}
	src.snap.Jobs[0] = JobCounters{Delivered: 50}
	src.snap.PB = []uint64{0x6} // one bit flipped off, one on
	p.Observe(200, src)         // interval [100,200] inside the window: rated

	sum := p.Finish()
	if sum.Samples != 3 || sum.Every != 100 {
		t.Fatalf("Samples=%d Every=%d", sum.Samples, sum.Every)
	}
	if sum.PeakInFlight != 40 || sum.PeakQueuedPhits != 120 {
		t.Fatalf("peaks: inflight=%d queued=%d", sum.PeakInFlight, sum.PeakQueuedPhits)
	}
	if sum.PBFlips != 2+2 { // 0→0x3 (2 flips) then 0x3→0x6 (2 flips)
		t.Fatalf("PBFlips = %d, want 4", sum.PBFlips)
	}
	// Group 0 delivered 80 phits over 100 cycles across 8 nodes = 0.1.
	if got := sum.GroupDlvMax[0]; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("GroupDlvMax[0] = %v, want 0.1", got)
	}
	if got := sum.GroupDlvMax[1]; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("GroupDlvMax[1] = %v, want 0.2", got)
	}
	if sum.WriteError != "" {
		t.Fatalf("unexpected write error %q", sum.WriteError)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	var last struct {
		Cycle  int64 `json:"cycle"`
		PBSet  *int  `json:"pb_set"`
		PBF    *int  `json:"pb_flips"`
		Groups []struct {
			InjRate float64 `json:"inj_rate"`
			DlvRate float64 `json:"dlv_rate"`
		} `json:"groups"`
		Jobs []struct {
			Delivered int64   `json:"delivered"`
			DlvRate   float64 `json:"dlv_rate"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatalf("bad JSONL line: %v", err)
	}
	if last.Cycle != 200 || last.PBSet == nil || *last.PBSet != 2 || last.PBF == nil || *last.PBF != 2 {
		t.Fatalf("last sample: %+v", last)
	}
	// Group 0 injected 10 packets × 8 phits over 100 cycles × 8 nodes = 0.1.
	if math.Abs(last.Groups[0].InjRate-0.1) > 1e-12 {
		t.Fatalf("inj_rate = %v, want 0.1", last.Groups[0].InjRate)
	}
	if last.Jobs[0].Delivered != 50 || math.Abs(last.Jobs[0].DlvRate-0.5) > 1e-12 {
		t.Fatalf("job sample: %+v", last.Jobs[0])
	}
}

func TestProbesNilWhenDisabled(t *testing.T) {
	if NewProbes(ProbeConfig{Every: 0}) != nil {
		t.Fatal("Every=0 must disable probing")
	}
}

// A failing sink must not break the run — the error surfaces once, in the
// summary.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestProbesWriteErrorSurfacesInSummary(t *testing.T) {
	q := NewProbes(ProbeConfig{Every: 1, Out: failWriter{}})
	src := newFakeSource()
	q.Observe(0, src)
	sum := q.Finish()
	if sum.WriteError == "" {
		t.Fatal("write error not reported in summary")
	}
}
