package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"dragonfly/internal/router"
)

// Chrome-trace / Perfetto export. The trace-event JSON format (the
// "traceEvents" array understood by ui.perfetto.dev and chrome://tracing)
// models a process/thread hierarchy of timed slices; we map it as:
//
//	process 1 ("packets")  — one thread per traced packet, named
//	                         "pkt src->dst #seq"; each router visit is a
//	                         complete slice (ph "X") from the switch
//	                         allocation grant to the link send, and the
//	                         delivery is an instant event (ph "i").
//
// Timestamps are microseconds in the format; we write one simulated cycle
// as one microsecond, so the UI's "us" readouts are cycles.

// perfettoEvent is one trace-event object. Fields follow the Chrome trace
// event format; zero-valued optionals are omitted.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON object.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfetto exports a merged event stream (Tracer.Events) as Chrome
// trace-event JSON loadable in ui.perfetto.dev. Each traced packet becomes
// one timeline row: a slice per router visit (grant → link send, labeled
// "R<router>:p<port> vc<vc>") and an instant marker at delivery.
func WritePerfetto(w io.Writer, events []Event) error {
	ids, byID := perPacket(events)
	file := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: make([]perfettoEvent, 0, 2*len(events))}
	for tid, id := range ids {
		evs := byID[id]
		// Thread metadata: name the row after the packet.
		src, dst := evs[0].Src, evs[0].Dst
		file.TraceEvents = append(file.TraceEvents, perfettoEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": fmt.Sprintf("pkt %d->%d #%d", src, dst, id&0xffffffff)},
		})
		var grant *Event
		for i := range evs {
			e := &evs[i]
			switch e.Kind {
			case router.TraceGrant:
				grant = e
			case router.TraceLinkSend:
				start, dur := e.Now, float64(1)
				if grant != nil {
					start = grant.Now
					dur = float64(e.Now-grant.Now) + 1
				}
				file.TraceEvents = append(file.TraceEvents, perfettoEvent{
					Name:  fmt.Sprintf("R%d:p%d vc%d", e.Router, e.Port, e.VC),
					Phase: "X",
					TS:    float64(start),
					Dur:   dur,
					PID:   1,
					TID:   tid,
					Cat:   "hop",
					Args: map[string]any{
						"router": e.Router, "port": e.Port, "vc": e.VC,
						"hops":  fmt.Sprintf("l%d/g%d", e.LocalHops, e.GlobalHops),
						"phase": e.Phase.String(),
					},
				})
				grant = nil
			case router.TraceDeliver:
				file.TraceEvents = append(file.TraceEvents, perfettoEvent{
					Name:  fmt.Sprintf("deliver@R%d", e.Router),
					Phase: "i",
					TS:    float64(e.Now),
					PID:   1,
					TID:   tid,
					Scope: "t",
					Cat:   "deliver",
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&file)
}
