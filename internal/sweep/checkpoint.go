package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"dragonfly/internal/stats"
)

// Checkpoint/resume for long sweeps. A Record is the portable outcome of
// one simulation point — exactly the fields aggregation folds into a
// Series, a few hundred bytes instead of a full sim.Result — and a
// Checkpoint is an append-only JSONL store of completed Records. A
// pipeline that persists each Record as it completes can be killed at any
// moment and rerun: every point already on disk is skipped, and because
// aggregation always folds records in point-index order, the final series
// are bit-identical whether the run was interrupted zero or ten times, and
// whatever the worker count.

// schemaVersion is the version of the Record / checkpoint JSONL schema.
// Records now travel between hosts (the serve job store exchanges them
// with dfserved workers over HTTP), so every record and checkpoint meta
// line carries the schema it was written under, and loads reject a
// mismatch instead of silently misreading foreign fields. Version 2
// introduced the field itself; files from before it (schema 0) are
// rejected the same way. An added optional omitempty field whose absence
// means "not computed" needs no bump (an older reader ignores it, an older
// record reads as not computed); a field that changes meaning, is removed
// or becomes required needs one.
const schemaVersion = 2

// Record is the checkpointable outcome of one simulation point.
type Record struct {
	// Schema is the schemaVersion the record was written under.
	Schema int `json:"schema,omitempty"`
	// Task names the owning pipeline task (e.g. "fig2a"); part of the
	// resume key so the same point may appear under two figures.
	Task string `json:"task,omitempty"`
	// Point identifies the simulation within the task.
	Point Point `json:"point"`
	// Mechanism and Pattern are the resolved display names from the run
	// (Point carries the requested names).
	Mechanism string `json:"mechanism"`
	Pattern   string `json:"pattern"`

	Throughput  float64         `json:"throughput"`
	AvgLatency  float64         `json:"avg_latency"`
	Breakdown   stats.Breakdown `json:"breakdown"`
	Injections  []float64       `json:"injections,omitempty"`
	WallSeconds float64         `json:"wall_seconds,omitempty"`
	// CPUSeconds is the process CPU consumed while this point ran (filled
	// by Grid.RunRecord; an upper bound under concurrent workers).
	CPUSeconds float64 `json:"cpu_seconds,omitempty"`
	// Reuse is the Sample's tag: "construct" for a grid point (empty for
	// records no grid point wrote, e.g. a scheduler study's).
	Reuse string `json:"reuse,omitempty"`

	// Err records a failed simulation (e.g. a watchdog-detected routing
	// deadlock). Simulations are deterministic, so failures are
	// checkpointed too: resuming does not re-run a point that will
	// deadlock again.
	Err string `json:"err,omitempty"`

	// Extra carries a pipeline-specific payload verbatim — e.g. the
	// scheduler study's per-point summary with its serialized quantile
	// sketches. Aggregation ignores it; it exists so pipelines whose
	// outcome is richer than the fixed fields above can still resume from
	// a checkpoint without a side store.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// RecordOf condenses a completed sample into its checkpoint record. A
// sample that never ran (neither a result nor an error) becomes an error
// record, so aggregation reports the gap instead of panicking on the
// missing result.
func RecordOf(task string, s Sample) Record {
	rec := Record{Schema: schemaVersion, Task: task, Point: s.Point, Reuse: s.Reuse}
	if s.Err != nil {
		rec.Err = s.Err.Error()
		return rec
	}
	if s.Result == nil {
		rec.Err = "simulation not run (cancelled before this point)"
		return rec
	}
	rec.Mechanism = s.Result.Mechanism
	rec.Pattern = s.Result.Pattern
	rec.Throughput = s.Result.Throughput()
	rec.AvgLatency = s.Result.AvgLatency()
	rec.Breakdown = s.Result.Breakdown()
	rec.WallSeconds = s.Result.Wall.Seconds()
	rec.Injections = make([]float64, len(s.Result.RouterInjected))
	for i, v := range s.Result.RouterInjected {
		rec.Injections[i] = float64(v)
	}
	return rec
}

// Key returns the resume identity of the record: task plus the requested
// point coordinates.
func (r Record) Key() string { return recordKey(r.Task, r.Point) }

func recordKey(task string, pt Point) string {
	return fmt.Sprintf("%s|%s|%s|%.9g|%d", task, pt.Mechanism, pt.Pattern, pt.Load, pt.Seed)
}

// AggregateRecords folds records into seed-averaged series, sorted by
// (mechanism, pattern, load) — the one aggregation every tool's tables
// and CSVs come from. Records are folded in slice order, so a
// caller holding them in point-index order gets bit-identical series
// regardless of which records came from a checkpoint and which were run
// fresh. Failed records are skipped; the returned error, if any, counts
// them and names the first.
func AggregateRecords(records []Record) ([]Series, error) {
	type key struct {
		mech, pat string
		load      float64
	}
	acc := make(map[key]*Series)
	var order []key
	var firstErr error
	failed := 0
	for _, rec := range records {
		if rec.Err != "" {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/%s@%.3g seed %d: %s",
					rec.Point.Mechanism, rec.Point.Pattern, rec.Point.Load, rec.Point.Seed, rec.Err)
			}
			continue
		}
		k := key{rec.Point.Mechanism, rec.Point.Pattern, rec.Point.Load}
		a, ok := acc[k]
		if !ok {
			a = &Series{
				Mechanism:  rec.Mechanism,
				Pattern:    rec.Pattern,
				Load:       rec.Point.Load,
				Injections: make([]float64, len(rec.Injections)),
			}
			acc[k] = a
			order = append(order, k)
		}
		a.seeds++
		a.Throughput += rec.Throughput
		a.AvgLatency += rec.AvgLatency
		a.Breakdown.Base += rec.Breakdown.Base
		a.Breakdown.Misroute += rec.Breakdown.Misroute
		a.Breakdown.WaitLocal += rec.Breakdown.WaitLocal
		a.Breakdown.WaitGlobal += rec.Breakdown.WaitGlobal
		a.Breakdown.WaitInj += rec.Breakdown.WaitInj
		for i, inj := range rec.Injections {
			a.Injections[i] += inj
		}
	}
	series := make([]Series, 0, len(acc))
	for _, k := range order {
		a := acc[k]
		n := float64(a.seeds)
		a.Throughput /= n
		a.AvgLatency /= n
		a.Breakdown.Base /= n
		a.Breakdown.Misroute /= n
		a.Breakdown.WaitLocal /= n
		a.Breakdown.WaitGlobal /= n
		a.Breakdown.WaitInj /= n
		for i := range a.Injections {
			a.Injections[i] /= n
		}
		a.Fairness = fairnessOfMeans(a.Injections)
		series = append(series, *a)
	}
	sort.Slice(series, func(i, j int) bool {
		a, b := series[i], series[j]
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		return a.Load < b.Load
	})
	if firstErr != nil {
		firstErr = fmt.Errorf("sweep: %d of %d points failed, the first: %w", failed, len(records), firstErr)
	}
	return series, firstErr
}

// ckptMeta is the first line of a checkpoint file: a fingerprint of the
// configuration that produced it, so a stale checkpoint is rejected
// instead of silently mixing runs from two different setups, plus the
// record schema version the file was written under.
type ckptMeta struct {
	Meta   string `json:"meta"`
	Schema int    `json:"schema,omitempty"`
}

// Checkpoint is an append-only JSONL store of completed records, safe for
// concurrent Put from pool workers. A nil *Checkpoint is a valid no-op
// store (Lookup always misses, Put discards), so pipeline code needs no
// branching when checkpointing is off.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[string]Record
}

// OpenCheckpoint opens (or creates) the checkpoint at path and loads every
// complete record already on it. meta fingerprints the producing
// configuration: opening an existing checkpoint whose fingerprint differs
// fails, because its records would be aggregated as if they came from the
// current configuration. A torn tail (a crash mid-write left an
// unterminated or unparsable final line) is truncated away before the
// file is reopened for appending, so the next record never glues onto
// debris; every newline-terminated record before it is trusted.
func OpenCheckpoint(path, meta string) (*Checkpoint, error) {
	c := &Checkpoint{done: make(map[string]Record)}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh checkpoint.
	case err != nil:
		return nil, err
	default:
		valid := 0 // bytes known to end on a complete, parsed line
		first := true
		for off := 0; off < len(data); {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				break // unterminated tail
			}
			line := data[off : off+nl]
			next := off + nl + 1
			if len(bytes.TrimSpace(line)) == 0 {
				off, valid = next, next
				continue
			}
			if first {
				first = false
				var m ckptMeta
				if err := json.Unmarshal(line, &m); err != nil || m.Meta == "" {
					return nil, fmt.Errorf("sweep: %s is not a checkpoint file (bad meta line)", path)
				}
				if m.Meta != meta {
					return nil, fmt.Errorf("sweep: checkpoint %s was produced by a different configuration (%s, want %s) — delete it to start over", path, m.Meta, meta)
				}
				if m.Schema != schemaVersion {
					return nil, fmt.Errorf("sweep: checkpoint %s uses record schema %d, this binary speaks %d — delete it to start over", path, m.Schema, schemaVersion)
				}
				off, valid = next, next
				continue
			}
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				break // torn mid-line write; drop it and the rest
			}
			if rec.Schema != schemaVersion {
				// A well-formed record under the wrong schema is a real
				// mismatch, not a torn tail: refuse the file.
				return nil, fmt.Errorf("sweep: checkpoint %s holds a schema-%d record, this binary speaks %d — delete it to start over", path, rec.Schema, schemaVersion)
			}
			c.done[rec.Key()] = rec
			off, valid = next, next
		}
		if first && len(data) > 0 {
			// Never truncate a file we could not even identify as a
			// checkpoint (the path may point at something else entirely).
			return nil, fmt.Errorf("sweep: %s is not a checkpoint file (no meta line)", path)
		}
		if valid < len(data) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("sweep: dropping torn checkpoint tail: %w", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	if len(c.done) == 0 {
		if st, err := f.Stat(); err == nil && st.Size() == 0 {
			if err := c.writeLine(ckptMeta{Meta: meta, Schema: schemaVersion}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *Checkpoint) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return err
	}
	// Flush per record: a checkpoint only helps if it survives a kill.
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.f.Sync()
}

// Lookup returns the stored record for a task point, if any. The record
// comes back under the caller's point identity: the key rounds Load to 9
// significant digits on purpose (0.3 specified literally and 0.3 reached
// by range accumulation are the same operating point), so the stored
// Point may differ from pt in the last few bits — returning pt instead
// keeps exact-equality consumers (aggregation grouping, derived-task
// matching) consistent between restored and freshly-run records.
func (c *Checkpoint) Lookup(task string, pt Point) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.done[recordKey(task, pt)]
	if ok {
		rec.Point = pt
	}
	return rec, ok
}

// Put persists one completed record. Concurrency-safe; each record is
// flushed to disk before Put returns.
func (c *Checkpoint) Put(rec Record) error {
	if c == nil {
		return nil
	}
	rec.Schema = schemaVersion
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.done[rec.Key()]; dup {
		return nil
	}
	c.done[rec.Key()] = rec
	return c.writeLine(rec)
}

// Len reports how many records the checkpoint holds.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Close flushes and closes the backing file.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}
