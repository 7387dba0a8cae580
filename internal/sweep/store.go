package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The serve job store (store.go) is the state behind dfserved: submitted
// sweep grids become Jobs whose points are handed out as expiring leases —
// to in-process runners and remote worker hosts alike — and whose
// completed Records land in per-base-fingerprint Checkpoints on disk.
//
// Two dedup layers compose here:
//
//   - Job level: a Job's ID is the fingerprint of its full normalized
//     spec, so submitting an identical spec twice returns the same Job —
//     a finished job is a pure cache hit served from stored records.
//   - Point level: records are keyed inside a checkpoint shared by every
//     job with the same base fingerprint (everything that shapes a single
//     point's result, minus the grid axes), so a partially-overlapping
//     grid restores its shared points and only simulates the new ones.
//
// Leases make dispatch crash-safe: a lease that is not completed or
// renewed before its deadline expires lazily (on the next store access),
// its points return to pending, and another worker picks them up.
// Completion is idempotent — simulations are deterministic, so whichever
// copy of a re-run point arrives first wins and later duplicates are
// dropped — which keeps the merged results byte-identical to a local run
// regardless of worker count, host split, or arrival order: records live
// in point-index slots and aggregation folds them in index order, the
// same invariant the experiment pipeline relies on.

// JobStatus is the lifecycle state of a store job.
type JobStatus string

const (
	jobQueued    JobStatus = "queued"
	jobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobCancelled JobStatus = "cancelled"
)

type pointState uint8

const (
	pointPending pointState = iota
	pointLeased
	pointDone
)

// Job is one submitted sweep: a grid expanded into points, each pending,
// leased, or done. All mutable state is guarded by the owning Store's
// mutex; the immutable identity fields are safe to read freely.
type Job struct {
	store  *Store
	id     string
	name   string
	baseFP string
	spec   json.RawMessage
	grid   Grid
	pts    []Point
	index  map[string]int // recordKey("", pt) → point index
	ck     *Checkpoint    // shared per-base-fingerprint store (nil: memory only)

	// Guarded by store.mu:
	recs      []Record
	state     []pointState
	done      int
	failed    int
	restored  int
	leased    int
	cancelled bool
	change    chan struct{} // closed and replaced on every state change
}

// ID returns the job's fingerprint identity.
func (j *Job) ID() string { return j.id }

// Name returns the job's short display name ("job-3").
func (j *Job) Name() string { return j.name }

// Grid returns the job's expanded sweep grid (for in-process runners).
func (j *Job) Grid() Grid { return j.grid }

// JobSnapshot is the wire status of a job.
type JobSnapshot struct {
	ID       string          `json:"id"`
	Name     string          `json:"name"`
	Status   JobStatus       `json:"status"`
	Total    int             `json:"total"`
	Done     int             `json:"done"`
	Failed   int             `json:"failed"`
	Restored int             `json:"restored"`
	Leased   int             `json:"leased"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// lease is one outstanding grant of points to a worker.
type lease struct {
	id       string
	job      *Job
	worker   string
	points   []int
	deadline time.Time
}

// LeaseInfo is the wire description of one granted lease: the job's spec
// (so the worker can rebuild the grid) plus the granted points.
type LeaseInfo struct {
	LeaseID    string          `json:"lease_id"`
	JobID      string          `json:"job_id"`
	JobName    string          `json:"job_name"`
	Spec       json.RawMessage `json:"spec"`
	Points     []Point         `json:"points"`
	TTLSeconds float64         `json:"ttl_seconds"`
}

// StoreStats are the store's cumulative dispatch counters. PointsLeased
// is the run counter the dedup tests and the CI smoke assert on: every
// simulation executed on behalf of the store — locally or on a worker —
// was leased first, so a cache-hit resubmission leaves it unchanged.
type StoreStats struct {
	Jobs           int   `json:"jobs"`
	PointsTotal    int   `json:"points_total"`
	PointsDone     int   `json:"points_done"`
	PointsRestored int   `json:"points_restored"`
	PointsLeased   int64 `json:"points_leased"`
	ActiveLeases   int   `json:"active_leases"`
	LeasesExpired  int64 `json:"leases_expired"`
}

// Store is the dfserved job store. A zero directory keeps everything in
// memory; otherwise completed records persist to one checkpoint file per
// base fingerprint under dir, so a restarted daemon serves finished work
// from disk without re-running anything.
type Store struct {
	mu       sync.Mutex
	dir      string
	now      func() time.Time
	jobs     map[string]*Job
	order    []*Job
	ckpts    map[string]*Checkpoint
	leases   map[string]*lease
	leaseSeq int64
	nLeased  int64
	nExpired int64
}

// NewStore opens a store rooted at dir ("" = memory only).
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{
		dir:    dir,
		now:    time.Now,
		jobs:   make(map[string]*Job),
		ckpts:  make(map[string]*Checkpoint),
		leases: make(map[string]*lease),
	}, nil
}

// SetClock overrides the store's clock (tests drive lease expiry with it).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Close releases the store's checkpoint files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, ck := range s.ckpts {
		if err := ck.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.ckpts = make(map[string]*Checkpoint)
	return first
}

// Submit registers the job for a spec fingerprint, or returns the
// existing one (existed=true) — the job-level dedup. New jobs prefill
// every point already in the base-fingerprint checkpoint, so overlapping
// grids only queue genuinely new work. spec must be the canonical
// normalized spec JSON: it is served to workers verbatim. Display names
// ("job-3") are assigned in submission order.
func (s *Store) Submit(id, baseFP string, spec json.RawMessage, grid Grid) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, true, nil
	}
	ck, err := s.checkpointLocked(baseFP)
	if err != nil {
		return nil, false, err
	}
	pts := grid.Points()
	if len(pts) == 0 {
		return nil, false, fmt.Errorf("sweep: job %s has no points", id)
	}
	j := &Job{
		store:  s,
		id:     id,
		name:   fmt.Sprintf("job-%d", len(s.order)+1),
		baseFP: baseFP,
		spec:   append(json.RawMessage(nil), spec...),
		grid:   grid,
		pts:    pts,
		index:  make(map[string]int, len(pts)),
		ck:     ck,
		recs:   make([]Record, len(pts)),
		state:  make([]pointState, len(pts)),
		change: make(chan struct{}),
	}
	for i, pt := range pts {
		key := recordKey("", pt)
		if _, dup := j.index[key]; dup {
			return nil, false, fmt.Errorf("sweep: job %s lists point %v twice", id, pt)
		}
		j.index[key] = i
		if rec, ok := ck.Lookup("", pt); ok {
			j.recs[i] = rec
			j.state[i] = pointDone
			j.done++
			j.restored++
			if rec.Err != "" {
				j.failed++
			}
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	return j, false, nil
}

// checkpointLocked opens (or finds) the checkpoint for a base
// fingerprint. Memory-only stores use a nil checkpoint, which is the
// valid no-op store.
func (s *Store) checkpointLocked(baseFP string) (*Checkpoint, error) {
	if s.dir == "" {
		return nil, nil
	}
	if ck, ok := s.ckpts[baseFP]; ok {
		return ck, nil
	}
	ck, err := OpenCheckpoint(filepath.Join(s.dir, "ck-"+baseFP+".jsonl"), baseFP)
	if err != nil {
		return nil, err
	}
	s.ckpts[baseFP] = ck
	return ck, nil
}

// Job returns a job by ID (nil if unknown).
func (s *Store) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every job in submission order.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// expireLocked lazily retires leases whose deadline passed, returning
// their unfinished points to pending. Called on every dispatch-path
// access, so a dead worker's points become leasable again as soon as
// anyone else asks for work.
func (s *Store) expireLocked() {
	now := s.now()
	for id, l := range s.leases {
		if !l.deadline.Before(now) {
			continue
		}
		for _, i := range l.points {
			if l.job.state[i] == pointLeased {
				l.job.state[i] = pointPending
				l.job.leased--
			}
		}
		delete(s.leases, id)
		s.nExpired++
		l.job.bumpLocked()
	}
}

// bumpLocked broadcasts a job state change to watchers.
func (j *Job) bumpLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

// Changed returns a channel closed on the job's next state change —
// progress streaming waits on it instead of polling.
func (j *Job) Changed() <-chan struct{} {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	return j.change
}

// Lease grants up to max pending points of one job (jobs are scanned in
// submission order), ok=false when no work is available. The lease must
// be completed or renewed within ttl or its points are re-leased to the
// next asker.
func (s *Store) Lease(worker string, max int, ttl time.Duration) (LeaseInfo, bool) {
	if max <= 0 {
		max = 1
	}
	if ttl <= 0 {
		ttl = time.Minute
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	for _, j := range s.order {
		if j.cancelled || j.done == len(j.pts) {
			continue
		}
		var idxs []int
		for i, st := range j.state {
			if st == pointPending {
				idxs = append(idxs, i)
				if len(idxs) == max {
					break
				}
			}
		}
		if len(idxs) == 0 {
			continue
		}
		s.leaseSeq++
		l := &lease{
			id:       fmt.Sprintf("lease-%d", s.leaseSeq),
			job:      j,
			worker:   worker,
			points:   idxs,
			deadline: s.now().Add(ttl),
		}
		for _, i := range idxs {
			j.state[i] = pointLeased
		}
		j.leased += len(idxs)
		s.leases[l.id] = l
		s.nLeased += int64(len(idxs))
		j.bumpLocked()
		info := LeaseInfo{
			LeaseID:    l.id,
			JobID:      j.id,
			JobName:    j.name,
			Spec:       j.spec,
			Points:     make([]Point, len(idxs)),
			TTLSeconds: ttl.Seconds(),
		}
		for k, i := range idxs {
			info.Points[k] = j.pts[i]
		}
		return info, true
	}
	return LeaseInfo{}, false
}

// Renew extends a lease's deadline by ttl from now. A lease that already
// expired (its points may be running elsewhere) cannot be revived.
func (s *Store) Renew(leaseID string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = time.Minute
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, ok := s.leases[leaseID]
	if !ok {
		return fmt.Errorf("sweep: lease %s expired or unknown", leaseID)
	}
	l.deadline = s.now().Add(ttl)
	return nil
}

// Complete merges finished records into a job and persists them to the
// shared checkpoint. Records are matched to points by their coordinates,
// rejected when their schema version differs from this binary's, and
// deduplicated: a point that was re-leased after this worker's lease
// expired and already completed elsewhere is skipped (the simulation is
// deterministic, so both copies are identical). leaseID may name an
// expired lease — late results are still merged, they just no longer
// shield the lease's remaining points from re-leasing. Returns how many
// records were applied.
func (s *Store) Complete(jobID, leaseID string, recs []Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	j, ok := s.jobs[jobID]
	if !ok {
		return 0, fmt.Errorf("sweep: unknown job %s", jobID)
	}
	applied := 0
	var firstErr error
	for _, rec := range recs {
		if rec.Schema != schemaVersion {
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep: record schema %d, this store speaks %d — mixed worker versions?", rec.Schema, schemaVersion)
			}
			continue
		}
		i, ok := j.index[recordKey("", rec.Point)]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep: record for %v does not belong to job %s", rec.Point, jobID)
			}
			continue
		}
		if j.state[i] == pointDone {
			continue // completed elsewhere after a lease expiry
		}
		rec.Task = "" // job records live under the bare point key
		if j.state[i] == pointLeased {
			j.leased--
		}
		j.state[i] = pointDone
		j.recs[i] = rec
		j.done++
		if rec.Err != "" {
			j.failed++
		}
		applied++
		if err := j.ck.Put(rec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if l, ok := s.leases[leaseID]; ok && l.job == j {
		// Return any points the worker leased but did not report (a
		// partial batch) to pending, and retire the lease.
		for _, i := range l.points {
			if j.state[i] == pointLeased {
				j.state[i] = pointPending
				j.leased--
			}
		}
		delete(s.leases, leaseID)
	}
	if applied > 0 || leaseID != "" {
		j.bumpLocked()
	}
	return applied, firstErr
}

// Cancel marks a job cancelled: its pending points are never leased
// again (in-flight leases may still complete and are merged harmlessly).
// Cancelling a finished job is a no-op.
func (s *Store) Cancel(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return fmt.Errorf("sweep: unknown job %s", jobID)
	}
	if j.done < len(j.pts) && !j.cancelled {
		j.cancelled = true
		j.bumpLocked()
	}
	return nil
}

// Snapshot returns the job's wire status. withSpec includes the spec
// JSON (list endpoints omit it to stay small).
func (j *Job) Snapshot(withSpec bool) JobSnapshot {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	j.store.expireLocked()
	return j.snapshotLocked(withSpec)
}

func (j *Job) snapshotLocked(withSpec bool) JobSnapshot {
	snap := JobSnapshot{
		ID:       j.id,
		Name:     j.name,
		Total:    len(j.pts),
		Done:     j.done,
		Failed:   j.failed,
		Restored: j.restored,
		Leased:   j.leased,
	}
	switch {
	case j.done == len(j.pts):
		snap.Status = JobDone
	case j.cancelled:
		snap.Status = JobCancelled
	case j.done > 0 || j.leased > 0:
		snap.Status = jobRunning
	default:
		snap.Status = jobQueued
	}
	if withSpec {
		snap.Spec = j.spec
	}
	return snap
}

// Records returns the job's completed records in point-index order, and
// whether the job is fully done. Aggregating the returned slice when
// done=true is byte-identical to aggregating a local Grid.Run of the
// same spec: both fold the same per-point records in the same order.
func (j *Job) Records() (recs []Record, done bool) {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	recs = make([]Record, 0, j.done)
	for i, st := range j.state {
		if st == pointDone {
			recs = append(recs, j.recs[i])
		}
	}
	return recs, j.done == len(j.pts)
}

// Stats returns the store's cumulative counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	st := StoreStats{
		Jobs:          len(s.order),
		PointsLeased:  s.nLeased,
		ActiveLeases:  len(s.leases),
		LeasesExpired: s.nExpired,
	}
	for _, j := range s.order {
		st.PointsTotal += len(j.pts)
		st.PointsDone += j.done
		st.PointsRestored += j.restored
	}
	return st
}
