package serve

import (
	"context"
	"time"

	"dragonfly/internal/sweep"
)

// leases is the lease protocol as a runner sees it: served by the Manager
// itself to the daemon's in-process runners (and to the HTTP handlers), and
// by Worker — the handlers' client — to dfserved -worker.
type leases interface {
	// lease asks for up to max pending points; ok=false when none are.
	lease(ctx context.Context, worker string, max int, ttl time.Duration) (info sweep.LeaseInfo, ok bool, err error)
	renew(ctx context.Context, leaseID string, ttl time.Duration) error
	complete(ctx context.Context, jobID, leaseID string, recs []sweep.Record) (applied int, err error)
	// grid builds the grid a job's points run on; called once per job.
	grid(info sweep.LeaseInfo) (sweep.Grid, error)
}

// runner is the one lease lifecycle: lease a batch of points, keep the
// lease alive while they run, run them on the shared sweep pool, complete.
// Every simulation the daemon serves — in-process or on a remote worker —
// goes through run. If a runner dies instead, its lease expires and the
// store re-leases the points; if it is merely slow and completes after the
// expiry, the store drops the duplicates (runs are deterministic), so crash
// recovery never skews results.
type runner struct {
	src   leases
	name  string        // the worker name leases are granted to
	batch int           // points per lease
	ttl   time.Duration // lease lifetime; renewed every ttl/3
	jobs  int           // concurrent simulations within a lease (0: pool width)
	poll  time.Duration // idle wait between empty lease attempts
	wake  <-chan struct{}
	logf  func(format string, args ...any)

	// The grid of the job served last. Consecutive leases are mostly of one
	// job, and its snapshot cache — one template per (mechanism, pattern,
	// seed), dearer to build than a short point is to run — must outlive a
	// lease to be of any use.
	jobID string
	grid  sweep.Grid
}

// run serves leases until ctx is cancelled. Failures to reach the source
// (a restarting daemon, a network blip) are logged and retried at the poll
// cadence — a runner is a daemon, not a batch job. A token on wake cuts the
// idle wait short.
func (r *runner) run(ctx context.Context) {
	for ctx.Err() == nil {
		info, ok, err := r.src.lease(ctx, r.name, r.batch, r.ttl)
		if !ok {
			if err != nil && ctx.Err() == nil {
				r.logf("serve: lease: %v", err)
			}
			select {
			case <-ctx.Done():
			case <-r.wake:
			case <-time.After(r.poll):
			}
			continue
		}
		if err := r.serve(ctx, info); err != nil && ctx.Err() == nil {
			r.logf("serve: lease %s: %v", info.LeaseID, err)
		}
	}
}

// serve runs one lease's points and returns the records. An error leaves
// the lease to lapse.
func (r *runner) serve(ctx context.Context, info sweep.LeaseInfo) error {
	if info.JobID != r.jobID {
		grid, err := r.src.grid(info)
		if err != nil {
			return err
		}
		r.jobID, r.grid = info.JobID, grid
	}

	// Keep the lease alive while the batch runs. A failed renewal means
	// the store already re-leased the points: the batch finishes anyway
	// and its late completion is deduplicated.
	renewCtx, stopRenew := context.WithCancel(ctx)
	renewed := make(chan struct{})
	go func() {
		defer close(renewed)
		t := time.NewTicker(r.ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if r.src.renew(renewCtx, info.LeaseID, r.ttl) != nil {
					return
				}
			}
		}
	}()
	recs := make([]sweep.Record, len(info.Points))
	runErr := sweep.Shared().Run(len(recs), sweep.RunOpts{MaxParallel: r.jobs, Context: ctx}, func(i int) {
		recs[i] = r.grid.RunRecord("", info.Points[i])
	})
	stopRenew()
	<-renewed
	if runErr != nil {
		return runErr // cancelled mid-batch: report nothing
	}
	_, err := r.src.complete(ctx, info.JobID, info.LeaseID, recs)
	return err
}
