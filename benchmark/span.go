package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

var epoch = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer, recorded from the benchmark's side
// of the call boundary.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id,omitempty"` // point or job the span belongs to
	Parent  int    `json:"parent"`       // index of the causing span, -1: root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the span's duration minus what its child spans cover;
	// filled in when the trace is written.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// begin opens a span and returns its index, the parent handle for spans it
// causes.
func (t *tracer) begin(name, id string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: nanotime()})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	now := nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = now
	return float64(now-t.spans[i].StartNs) / 1e9
}

// time records fn as one span and returns its duration in seconds.
func (t *tracer) time(name, id string, parent int, fn func()) float64 {
	i := t.begin(name, id, parent)
	fn()
	return t.end(i)
}

// durations returns the length in seconds of every span with this name, in
// recording order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// write computes self times and writes the trace as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Children of one parent may overlap (two pool workers under one
	// root), so subtract the union of their intervals, not the sum. Spans
	// are appended in start order, which is the order the merge needs.
	covered := make([]int64, len(t.spans))
	reach := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		from := max(s.StartNs, reach[s.Parent])
		if s.EndNs > from {
			covered[s.Parent] += s.EndNs - from
			reach[s.Parent] = s.EndNs
		}
	}
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs - covered[i]
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
