package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"math/bits"
)

// ProbeConfig parameterizes a Probes instance.
type ProbeConfig struct {
	// Every is the sampling cadence in cycles (samples at cycles divisible
	// by it). Must be positive.
	Every int64
	// Out, when non-nil, receives one JSON object per sample, newline
	// separated (JSONL). The stream is written incrementally — nothing is
	// buffered in memory beyond one line — so a full-length time-series
	// costs O(1) memory however long the run.
	Out io.Writer
}

// Probes samples a Source at a fixed cadence and reduces the samples into
// a streaming JSONL time-series plus a bounded Summary. One instance
// belongs to exactly one run: it accumulates per-run state (previous
// counters for rate deltas, summary extrema) and must not be shared
// between concurrent simulations.
type Probes struct {
	cfg    ProbeConfig
	shape  Shape
	inited bool

	snap   Snapshot
	prev   []GroupCounters // previous sample's cumulative group counters
	prevJ  []JobCounters
	prevPB []uint64
	prevAt int64 // cycle of the previous sample (-1: none yet)

	w   *bufio.Writer
	err error
	sum Summary

	line sampleJSON // reused JSONL scratch
}

// NewProbes builds a recorder for one run. Returns nil when cfg.Every is
// not positive, so callers can wire flag values straight through.
func NewProbes(cfg ProbeConfig) *Probes {
	if cfg.Every <= 0 {
		return nil
	}
	p := &Probes{cfg: cfg, prevAt: -1}
	p.sum.Every = cfg.Every
	if cfg.Out != nil {
		p.w = bufio.NewWriter(cfg.Out)
	}
	return p
}

// Every returns the sampling cadence in cycles.
func (p *Probes) Every() int64 { return p.cfg.Every }

// sampleJSON is the stable JSONL schema of one probe sample.
type sampleJSON struct {
	Cycle        int64       `json:"cycle"`
	InFlight     int         `json:"in_flight"`
	LocalUtil    float64     `json:"local_link_util"`
	GlobalUtil   float64     `json:"global_link_util"`
	CreditStalls int         `json:"credit_stalls"`
	QueuedPhits  int64       `json:"queued_phits"`
	PBSet        *int        `json:"pb_set,omitempty"`
	PBFlips      *int        `json:"pb_flips,omitempty"`
	Groups       []groupJSON `json:"groups"`
	Jobs         []jobJSON   `json:"jobs,omitempty"`
}

// groupJSON carries one group's sample: rates in phits/(node·cycle) over
// the interval since the previous sample (0 outside the measurement
// window, where the underlying counters are frozen) and instantaneous
// queue occupancies in phits.
type groupJSON struct {
	InjRate float64 `json:"inj_rate"`
	DlvRate float64 `json:"dlv_rate"`
	InQ     int64   `json:"in_q_phits"`
	OutQ    int64   `json:"out_q_phits"`
}

// jobJSON carries one job's sample: whole-run delivered packets and the
// delivery rate in packets/cycle over the last interval (live counters,
// meaningful during warm-up too).
type jobJSON struct {
	Delivered int64   `json:"delivered"`
	DlvRate   float64 `json:"dlv_rate"`
}

// init sizes the recorder from the source's shape, at the first sample.
func (p *Probes) init(src Source) {
	p.shape = src.Shape()
	p.snap.Groups = make([]GroupCounters, p.shape.Groups)
	p.snap.Jobs = make([]JobCounters, p.shape.Jobs)
	p.prev = make([]GroupCounters, p.shape.Groups)
	p.prevJ = make([]JobCounters, p.shape.Jobs)
	p.line.Groups = make([]groupJSON, p.shape.Groups)
	p.line.Jobs = make([]jobJSON, p.shape.Jobs)
	p.inited = true
}

// Observe takes one sample at cycle now. The caller (the engine's probe
// hook) is responsible for the cadence; Observe itself records whatever
// cycle it is handed. Must be called with all engine workers quiescent.
func (p *Probes) Observe(now int64, src Source) {
	if !p.inited {
		p.init(src)
	}
	src.Collect(now, &p.snap)
	s := &p.snap

	p.sum.Samples++
	if s.InFlight > p.sum.PeakInFlight {
		p.sum.PeakInFlight = s.InFlight
	}
	if s.CreditStalls > p.sum.PeakCreditStalls {
		p.sum.PeakCreditStalls = s.CreditStalls
	}

	flips := 0
	if s.PB != nil && p.prevPB != nil {
		for i, w := range s.PB {
			flips += bits.OnesCount64(w ^ p.prevPB[i])
		}
		p.sum.PBFlips += int64(flips)
	}

	interval := int64(0)
	if p.prevAt >= 0 {
		interval = now - p.prevAt
	}
	// Counter deltas are rates only when the whole interval lies inside
	// the measurement window (the accumulators are frozen before it).
	rated := interval > 0 && p.prevAt >= p.shape.MeasureFrom
	nodes := float64(p.shape.NodesPerGroup)
	var queued int64
	for g := range s.Groups {
		gc := &s.Groups[g]
		queued += gc.InQPhits + gc.OutQPhits
		line := &p.line.Groups[g]
		line.InQ, line.OutQ = gc.InQPhits, gc.OutQPhits
		line.InjRate, line.DlvRate = 0, 0
		if rated {
			dt := nodes * float64(interval)
			line.InjRate = float64(gc.Injected-p.prev[g].Injected) * float64(p.shape.PacketSize) / dt
			line.DlvRate = float64(gc.DeliveredPhits-p.prev[g].DeliveredPhits) / dt
			if p.sum.GroupDlvMin == nil {
				p.sum.GroupDlvMin = make([]float64, len(s.Groups))
				p.sum.GroupDlvMax = make([]float64, len(s.Groups))
				for i := range p.sum.GroupDlvMin {
					p.sum.GroupDlvMin[i] = math.Inf(1)
					p.sum.GroupDlvMax[i] = math.Inf(-1)
				}
			}
			p.sum.GroupDlvMin[g] = math.Min(p.sum.GroupDlvMin[g], line.DlvRate)
			p.sum.GroupDlvMax[g] = math.Max(p.sum.GroupDlvMax[g], line.DlvRate)
		}
		p.prev[g] = *gc
	}
	for j := range s.Jobs {
		line := &p.line.Jobs[j]
		line.Delivered = s.Jobs[j].Delivered
		line.DlvRate = 0
		if interval > 0 {
			line.DlvRate = float64(s.Jobs[j].Delivered-p.prevJ[j].Delivered) / float64(interval)
		}
		p.prevJ[j] = s.Jobs[j]
	}
	if queued > p.sum.PeakQueuedPhits {
		p.sum.PeakQueuedPhits = queued
	}

	p.line.Cycle = now
	p.line.InFlight = s.InFlight
	p.line.CreditStalls = s.CreditStalls
	p.line.QueuedPhits = queued
	p.line.LocalUtil, p.line.GlobalUtil = 0, 0
	if p.shape.LocalLinks > 0 {
		p.line.LocalUtil = float64(s.LocalBusy) / float64(p.shape.LocalLinks)
	}
	if p.shape.GlobalLinks > 0 {
		p.line.GlobalUtil = float64(s.GlobalBusy) / float64(p.shape.GlobalLinks)
	}
	p.line.PBSet, p.line.PBFlips = nil, nil
	if s.PB != nil {
		set := s.PBSet
		p.line.PBSet = &set
		if p.prevPB == nil {
			p.prevPB = make([]uint64, len(s.PB))
		} else {
			f := flips
			p.line.PBFlips = &f
		}
		copy(p.prevPB, s.PB)
	}
	p.prevAt = now

	if p.w != nil {
		data, err := json.Marshal(&p.line)
		if err == nil {
			_, err = p.w.Write(append(data, '\n'))
		}
		if err != nil && p.err == nil {
			p.err = err
		}
	}
}

// Finish flushes the time-series sink and returns the run summary. Call
// once, after the last cycle.
func (p *Probes) Finish() *Summary {
	if p.w != nil {
		if err := p.w.Flush(); err != nil && p.err == nil {
			p.err = err
		}
	}
	if p.err != nil {
		p.sum.WriteError = p.err.Error()
	}
	// No whole-interval measurement-window sample pair: drop the extrema
	// (they'd carry infinities into JSON otherwise).
	for _, v := range p.sum.GroupDlvMin {
		if math.IsInf(v, 1) {
			p.sum.GroupDlvMin, p.sum.GroupDlvMax = nil, nil
			break
		}
	}
	return &p.sum
}
