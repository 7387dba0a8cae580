package sweep

import (
	"context"
	"fmt"
	"sync"
)

// Slot names one point of a resumable run: the checkpoint task namespace
// it is stored under, and the point.
type Slot struct {
	Task  string
	Point Point
}

// RestoreOrRun is the restore-or-run loop of every checkpointed multi-run
// tool. Slots the checkpoint already holds (nil: none) are restored without
// running; the rest go to the shared pool as ONE batch in slot order, at
// most maxParallel at a time (<= 0: pool width), each run(i) persisted to
// ck as it completes. note (nil ok) is called after every restored or
// completed slot with its record — concurrently from several workers, and
// it must not submit to the pool.
//
// It returns the records in slot order and which slots are filled. When ctx
// is cancelled the unclaimed slots are dropped, running ones complete and
// are persisted, and the error is ctx.Err(): the checkpoint stays consistent
// and a rerun resumes. Trouble storing a record does not stop the batch —
// only resumability degrades — but the first such error is returned once
// every slot has run.
func RestoreOrRun(ctx context.Context, ck *Checkpoint, slots []Slot, maxParallel int,
	run func(i int) Record, note func(i int, rec *Record, restored bool)) ([]Record, []bool, error) {
	recs := make([]Record, len(slots))
	filled := make([]bool, len(slots))
	pending := make([]int, 0, len(slots))
	for i, sl := range slots {
		rec, ok := ck.Lookup(sl.Task, sl.Point)
		if !ok {
			pending = append(pending, i)
			continue
		}
		recs[i], filled[i] = rec, true
		if note != nil {
			note(i, &recs[i], true)
		}
	}
	var (
		mu    sync.Mutex
		ckErr error // first checkpoint-storage failure
	)
	batch := Shared().Submit(len(pending), RunOpts{MaxParallel: maxParallel, Context: ctx}, func(k int) {
		i := pending[k]
		recs[i], filled[i] = run(i), true
		if err := ck.Put(recs[i]); err != nil {
			mu.Lock()
			if ckErr == nil {
				ckErr = err
			}
			mu.Unlock()
		}
		if note != nil {
			note(i, &recs[i], false)
		}
	})
	// Wait returns once no task of the batch is running, so the slots are
	// safe to read.
	if err := batch.Wait(ctx); err != nil {
		return recs, filled, err
	}
	if ckErr != nil {
		return recs, filled, fmt.Errorf("sweep: every point ran but checkpointing failed: %w", ckErr)
	}
	return recs, filled, nil
}
