package sim

import (
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/telemetry"
)

// traceRun executes one traced run and returns the merged event stream.
func traceRun(t *testing.T, workers int) []telemetry.Event {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mechanism = "Obl-RRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.2
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	cfg.Workers = workers
	cfg.Tracer = telemetry.NewTracer(cfg.Topology.Groups()*cfg.Topology.A, 1, 1<<20)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events", cfg.Tracer.Dropped())
	}
	events := cfg.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("nothing traced")
	}
	return events
}

// A traced packet's event stream must be temporally ordered, contain one
// grant+send pair per router visited, and end with a delivery at the
// destination router. The tracer's per-router buffers make this safe at
// any worker count.
func TestTraceReconstructsPaths(t *testing.T) {
	events := traceRun(t, 1)
	var ids []uint64
	byID := map[uint64][]telemetry.Event{}
	for _, e := range events {
		if _, ok := byID[e.ID]; !ok {
			ids = append(ids, e.ID)
		}
		byID[e.ID] = append(byID[e.ID], e)
	}
	checked := 0
	for _, id := range ids {
		evs := byID[id]
		last := evs[len(evs)-1]
		if last.Kind != router.TraceDeliver {
			continue // packet still in flight at simulation end
		}
		checked++
		var prev int64 = -1
		grants, sends := 0, 0
		for _, e := range evs {
			if e.Now < prev {
				t.Fatalf("packet %d: time went backwards in trace", id)
			}
			prev = e.Now
			switch e.Kind {
			case router.TraceGrant:
				grants++
			case router.TraceLinkSend:
				sends++
			}
		}
		if grants != sends {
			t.Fatalf("packet %d: %d grants but %d sends", id, grants, sends)
		}
		if grants < 1 || grants > 7 {
			t.Fatalf("packet %d: implausible hop count %d", id, grants)
		}
		if checked > 200 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no delivered packet fully traced")
	}
}

// The merged trace stream is identical at every worker count: per-router
// shards depend only on each router's own event order, and the merge is a
// deterministic sort.
func TestTraceWorkerInvariance(t *testing.T) {
	ref := traceRun(t, 1)
	for _, workers := range workerCounts(2, numCPU) {
		got := traceRun(t, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: event %d differs: %+v vs %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestTraceKindStrings(t *testing.T) {
	for _, k := range []router.TraceKind{router.TraceGrant, router.TraceLinkSend, router.TraceDeliver} {
		if k.String() == "" || k.String() == "trace(?)" {
			t.Errorf("TraceKind %d has no name", k)
		}
	}
	if router.TraceKind(9).String() != "trace(?)" {
		t.Error("unknown kind misnamed")
	}
}
