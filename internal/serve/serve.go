// Package serve implements the dfserved daemon: a long-running HTTP
// service that turns the sweep pipeline from a CLI into a serving
// surface. Clients POST portable sweep specs (experiments.Spec); a
// Manager normalizes and fingerprints them into the sweep job store,
// where identical specs dedup into one job and overlapping grids share
// per-base-fingerprint checkpoints, so repeated work is served from
// stored JSONL records instead of re-simulated. Points are executed by
// in-process runners, by remote dfserved -worker processes pulling
// expiring point leases over HTTP, or both at once; the store merges
// completed records in point-index order, so the aggregated results are
// byte-identical to a local dfsweep run whatever the host split.
//
// The HTTP layer follows the manager + per-route-handler pattern: one
// handler struct per route (handlers.go), each a thin translation layer
// over the Manager, which owns every piece of state. The live
// introspection endpoints (/api/progress, /api/tasks, /debug/vars) are
// defined once here (liveRoutes) and mounted on the same mux, shared with
// dfexperiments -listen.
//
// The daemon is deliberately auth-free and meant for localhost or a
// trusted cluster network — the CI smoke test drives it with curl on
// 127.0.0.1.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/sweep"
	"dragonfly/internal/telemetry"
)

// Options parameterizes a Manager.
type Options struct {
	// StoreDir persists checkpoints and the submission journal ("" =
	// memory only; finished work is forgotten on exit).
	StoreDir string
	// LocalRunners is the number of in-process point runners (0:
	// NumCPU; negative: none — a dispatch-only server that relies
	// entirely on remote workers).
	LocalRunners int
	// LeaseTTL is the default lease lifetime local runners use and the
	// fallback for worker leases that name none (0: one minute).
	LeaseTTL time.Duration
	// Logf, when non-nil, receives one line per notable daemon event.
	Logf func(format string, args ...any)
}

// Manager owns the daemon's state: the job store, the live accumulator,
// the local runner pool, and the on-disk submission journal that lets a
// restarted daemon rebuild its jobs (completed points then restore from
// the store's checkpoints without running anything).
type Manager struct {
	store *sweep.Store
	live  *telemetry.Live
	ttl   time.Duration
	logf  func(string, ...any)
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	kick   chan struct{}

	mu      sync.Mutex // guards journal writes
	journal *os.File
}

// journalLine is one entry of the submission journal: a submitted spec
// (canonical JSON) or a cancellation.
type journalLine struct {
	Spec   json.RawMessage `json:"spec,omitempty"`
	Cancel string          `json:"cancel,omitempty"`
}

// NewManager builds the daemon state, replays the submission journal
// when a store directory is configured, and starts the local runners.
func NewManager(opts Options) (*Manager, error) {
	store, err := sweep.NewStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	live := telemetry.NewLive()
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		store:  store,
		live:   live,
		ttl:    ttl,
		logf:   logf,
		start:  time.Now(),
		ctx:    ctx,
		cancel: cancel,
		kick:   make(chan struct{}, 1),
	}
	if opts.StoreDir != "" {
		if err := m.replayJournal(filepath.Join(opts.StoreDir, "submits.jsonl")); err != nil {
			cancel()
			store.Close()
			return nil, err
		}
	}
	runners := opts.LocalRunners
	if runners == 0 {
		runners = runtime.NumCPU()
	}
	for i := 0; i < runners; i++ {
		r := &runner{src: m, name: "local", batch: 1, ttl: ttl, jobs: 1, poll: 250 * time.Millisecond, wake: m.kick, logf: logf}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			r.run(ctx)
		}()
	}
	return m, nil
}

// Close stops the local runners and releases the store and journal.
func (m *Manager) Close() error {
	m.cancel()
	m.wg.Wait()
	m.mu.Lock()
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
	m.mu.Unlock()
	return m.store.Close()
}

// Store exposes the job store (handlers and tests read through it).
func (m *Manager) Store() *sweep.Store { return m.store }

// replayJournal rebuilds jobs from a previous daemon life and reopens
// the journal for appending. A torn tail (crash mid-append) is skipped;
// every complete line before it is replayed.
func (m *Manager) replayJournal(path string) error {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var jl journalLine
		if err := json.Unmarshal(line, &jl); err != nil {
			continue // torn or foreign line; the journal is advisory
		}
		switch {
		case jl.Cancel != "":
			m.store.Cancel(jl.Cancel) //nolint:errcheck // job may predate a wiped store
		case len(jl.Spec) > 0:
			if _, err := m.register(jl.Spec, false); err != nil {
				m.logf("serve: journal replay: %v", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	m.journal = f
	return nil
}

// appendJournal persists one journal line and syncs it to disk, as every
// checkpoint write is (no-op without a store dir).
func (m *Manager) appendJournal(jl journalLine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return
	}
	data, err := json.Marshal(jl)
	if err == nil {
		_, err = m.journal.Write(append(data, '\n'))
	}
	if err == nil {
		err = m.journal.Sync()
	}
	if err != nil {
		m.logf("serve: journal write failed: %v", err)
	}
}

// SubmitResult is the submission response: the job's status plus whether
// the spec deduped onto an existing job.
type SubmitResult struct {
	Job      sweep.JobSnapshot `json:"job"`
	Existing bool              `json:"existing"`
}

// submit validates a raw spec, dedups it by fingerprint, and registers
// the job. An identical spec returns the existing job (Existing=true);
// if that job already finished, the caller gets a pure cache hit —
// records are served from the store without a single simulation.
func (m *Manager) submit(raw json.RawMessage) (SubmitResult, error) {
	res, err := m.register(raw, true)
	if err == nil && !res.Existing {
		m.logf("serve: job %s submitted (%d points, %d restored)",
			res.Job.Name, res.Job.Total, res.Job.Restored)
	}
	return res, err
}

func (m *Manager) register(raw json.RawMessage, journal bool) (SubmitResult, error) {
	var spec experiments.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return SubmitResult{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return SubmitResult{}, err
	}
	id, err := spec.Fingerprint()
	if err != nil {
		return SubmitResult{}, err
	}
	baseFP, err := spec.BaseFingerprint()
	if err != nil {
		return SubmitResult{}, err
	}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return SubmitResult{}, err
	}
	grid, err := spec.Grid()
	if err != nil {
		return SubmitResult{}, err
	}
	job, existed, err := m.store.Submit(id, baseFP, canonical, grid)
	if err != nil {
		return SubmitResult{}, err
	}
	if !existed {
		snap := job.Snapshot(false)
		m.live.AddTotal(snap.Total)
		for i := 0; i < snap.Restored; i++ {
			m.live.NotePoint(job.Name(), 0, 0, true)
		}
		if journal {
			m.appendJournal(journalLine{Spec: canonical})
		}
		m.kickRunners()
	}
	return SubmitResult{Job: job.Snapshot(true), Existing: existed}, nil
}

// cancelJob marks a job cancelled and journals the decision.
func (m *Manager) cancelJob(jobID string) error {
	if err := m.store.Cancel(jobID); err != nil {
		return err
	}
	m.appendJournal(journalLine{Cancel: jobID})
	m.logf("serve: job %s cancelled", jobID)
	return nil
}

// kickRunners wakes idle local runners without blocking.
func (m *Manager) kickRunners() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// The lease protocol (leases), as the in-process runners call it directly
// and the HTTP handlers on behalf of remote workers — so every executed
// simulation is accounted by the store's lease counter.

func (m *Manager) lease(_ context.Context, worker string, max int, ttl time.Duration) (sweep.LeaseInfo, bool, error) {
	if ttl <= 0 {
		ttl = m.ttl
	}
	info, ok := m.store.Lease(worker, max, ttl)
	if ok {
		// The kick channel holds one token, so a submission wakes one
		// runner; each lease won passes the token on, and the idle runners
		// cascade awake instead of sleeping out their poll.
		m.kickRunners()
	}
	return info, ok, nil
}

func (m *Manager) renew(_ context.Context, leaseID string, ttl time.Duration) error {
	if ttl <= 0 {
		ttl = m.ttl
	}
	return m.store.Renew(leaseID, ttl)
}

// complete merges a lease's records into the store and notes the applied
// ones as progress.
func (m *Manager) complete(_ context.Context, jobID, leaseID string, recs []sweep.Record) (int, error) {
	applied, err := m.store.Complete(jobID, leaseID, recs)
	if j := m.store.Job(jobID); j != nil && applied > 0 {
		for _, rec := range recs[:applied] { // the timings of that many points; which ones does not matter
			m.live.NotePoint(j.Name(), rec.WallSeconds, rec.CPUSeconds, false)
		}
		if snap := j.Snapshot(false); snap.Status == sweep.JobDone {
			m.logf("serve: job %s done (%d points, %d restored, %d failed)",
				snap.Name, snap.Total, snap.Restored, snap.Failed)
		}
	}
	return applied, err
}

// grid shares the job's own grid — and with it one snapshot cache — between
// all local runners.
func (m *Manager) grid(info sweep.LeaseInfo) (sweep.Grid, error) {
	return m.store.Job(info.JobID).Grid(), nil
}

// uptime reports how long the manager has been serving.
func (m *Manager) uptime() time.Duration { return time.Since(m.start) }
