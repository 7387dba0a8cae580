// Package telemetry is the simulator's observability layer: per-cycle
// probes sampled over the live router state, a sampled worker-safe packet
// tracer with a Perfetto/Chrome-trace exporter, and the Live accumulator
// behind the introspection endpoints that internal/serve exposes over
// HTTP/expvar for long pipeline runs.
//
// The package defines the data model (Shape, Snapshot, the Summary merged
// into results) and the machinery that turns samples into bounded output;
// it deliberately knows nothing about the simulator. internal/sim
// implements Source on top of the network's one router state layout
// (router.Core) and calls Probes at the engine's between-cycles
// reconfiguration point, where every worker is quiescent. Probes are
// read-only observers of state that is already bit-identical across
// worker counts at every cycle boundary, so enabling them cannot perturb
// results, and the emitted time-series are themselves bit-identical
// across worker counts.
//
// Everything is zero-cost when disabled: a run without probes and tracer
// costs one nil check per cycle and allocates nothing (the steady-state
// zero-alloc gate in internal/sim runs against exactly that path).
package telemetry

// Shape describes the sampled network's static dimensions. Source
// implementations report it once, at the first sample.
type Shape struct {
	Groups  int
	Routers int
	Nodes   int
	Jobs    int // 0 without job attribution
	// NodesPerGroup and PacketSize normalise counter deltas into
	// phits/(node·cycle) rates.
	NodesPerGroup int
	PacketSize    int
	// LocalLinks and GlobalLinks are the network-wide transit port counts —
	// the denominators of the link-utilization fractions.
	LocalLinks  int
	GlobalLinks int
	// MeasureFrom is the cycle the measurement window opens at. Counter
	// deltas are only meaningful from there on (the underlying accumulators
	// are frozen during warm-up); occupancy probes are live from cycle 0.
	MeasureFrom int64
}

// GroupCounters is one group's slice of a Snapshot: cumulative
// measurement-window counters (delta'd into rates by the recorder) plus
// instantaneous queue occupancies.
type GroupCounters struct {
	Injected       int64 // packets, cumulative over the measurement window
	DeliveredPhits int64 // phits, cumulative over the measurement window
	InQPhits       int64 // phits buffered on input ports now
	OutQPhits      int64 // phits reserved on output ports now
}

// JobCounters is one job's slice of a Snapshot. Delivered counts packets
// over the whole run (warm-up included): it is the always-live counter the
// dynamic scheduler's packet targets use, so job progress is visible before
// the measurement window opens.
type JobCounters struct {
	Delivered int64
}

// Snapshot is one instantaneous observation of the network, taken between
// cycles. The slices are owned by the recorder and reused between samples;
// Source implementations overwrite them in place.
type Snapshot struct {
	InFlight     int
	LocalBusy    int // local transit ports serialising a packet this cycle
	GlobalBusy   int // global transit ports serialising a packet this cycle
	CreditStalls int // transit ports idle with queued packets, blocked on credits alone
	// PB is the packed PiggyBack saturation bit vector (nil when the
	// mechanism carries no PB state); PBSet counts its set bits.
	PB    []uint64
	PBSet int
	// Groups and Jobs are indexed by group/job id, lengths fixed by Shape.
	Groups []GroupCounters
	Jobs   []JobCounters
}

// Summary is the bounded run-level digest of a probed run, merged into
// sim.Result and the report JSON. Peaks are over all samples (warm-up
// included — the transient is usually the point); the per-group delivered
// rate extrema cover only whole sampling intervals inside the measurement
// window, where the underlying counters move.
type Summary struct {
	Every            int64 `json:"every"`
	Samples          int   `json:"samples"`
	PeakInFlight     int   `json:"peak_in_flight"`
	PeakQueuedPhits  int64 `json:"peak_queued_phits"`
	PeakCreditStalls int   `json:"peak_credit_stalls"`
	// PBFlips counts PiggyBack saturation bits that changed between
	// consecutive samples, summed over the run.
	PBFlips int64 `json:"pb_flips"`
	// GroupDlvMin/Max are each group's min/max delivered rate in
	// phits/(node·cycle) over measurement-window sampling intervals
	// (nil until at least two measurement-window samples exist).
	GroupDlvMin []float64 `json:"group_dlv_min,omitempty"`
	GroupDlvMax []float64 `json:"group_dlv_max,omitempty"`
	// WriteError records a time-series sink failure (the run itself is
	// never aborted by a telemetry write).
	WriteError string `json:"write_error,omitempty"`
}

// Source is the read-only view a Probes samples. Implementations must
// return identical observations at identical cycles regardless of engine
// or worker count — internal/sim guarantees this by sampling only state
// covered by its cross-engine bit-identity proofs.
type Source interface {
	// Shape reports the static dimensions; called once, before the first
	// Collect.
	Shape() Shape
	// Collect fills s with the state observable at the start of cycle now,
	// overwriting the recorder-owned slices in place.
	Collect(now int64, s *Snapshot)
}
