package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A single-worker pool drains batches in submission order.
func TestPoolSubmissionOrder(t *testing.T) {
	p := newPool(1)
	defer p.Close()

	var mu sync.Mutex
	var order []string
	record := func(tag string) func(int) {
		return func(int) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}

	// Stall the worker so both batches are queued before any task runs.
	gate := make(chan struct{})
	stall := p.Submit(1, RunOpts{}, func(int) { <-gate })
	// Wait until the worker has claimed the stall task, or the batches
	// below could be picked first.
	for {
		time.Sleep(time.Millisecond)
		p.mu.Lock()
		claimed := stall.next == 1
		p.mu.Unlock()
		if claimed {
			break
		}
	}

	first := p.Submit(3, RunOpts{}, record("first"))
	second := p.Submit(3, RunOpts{}, record("second"))
	close(gate)
	for _, b := range []*Batch{stall, first, second} {
		if err := b.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{"first", "first", "first", "second", "second", "second"}
	for i, tag := range want {
		if order[i] != tag {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// Cancelling a batch mid-run stops the remaining tasks; Run reports the
// context error and the completed count stays consistent.
func TestPoolCancellation(t *testing.T) {
	p := newPool(2)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 1000
	err := p.Run(n, RunOpts{Context: ctx}, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
	})
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n || got < 10 {
		t.Fatalf("ran %d tasks of %d; cancellation had no effect", got, n)
	}
}

// A task that itself submits a nested Run must complete even when the
// nested batch finds every pool worker busy: the submitting goroutine
// executes its own tasks.
func TestPoolNestedRunNoDeadlock(t *testing.T) {
	p := newPool(1) // one worker: the nested Run can never get a worker
	defer p.Close()

	var inner atomic.Int64
	err := p.Run(1, RunOpts{}, func(int) {
		p.Run(8, RunOpts{}, func(int) { inner.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.Load() != 8 {
		t.Fatalf("nested batch ran %d tasks, want 8", inner.Load())
	}
}

// A zero-worker pool still completes Run batches on the caller, strictly
// serially.
func TestPoolZeroWorkersSerial(t *testing.T) {
	p := newPool(0)
	defer p.Close()

	var cur, max, count int64
	err := p.Run(16, RunOpts{}, func(int) {
		c := atomic.AddInt64(&cur, 1)
		if c > atomic.LoadInt64(&max) {
			atomic.StoreInt64(&max, c)
		}
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&cur, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 16 || max != 1 {
		t.Fatalf("count %d (want 16), max concurrency %d (want 1)", count, max)
	}
}

// MaxParallel bounds in-flight tasks of a batch even when the pool has
// idle workers.
func TestPoolMaxParallel(t *testing.T) {
	p := newPool(8)
	defer p.Close()

	var pk peak
	if err := p.Run(64, RunOpts{MaxParallel: 2}, func(int) { pk.run(200 * time.Microsecond) }); err != nil {
		t.Fatal(err)
	}
	if got := pk.max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent tasks, MaxParallel was 2", got)
	}
}

// peak tracks how many tasks run at once.
type peak struct{ cur, max atomic.Int64 }

// run counts one task in for d, then out.
func (p *peak) run(d time.Duration) {
	c := p.cur.Add(1)
	for m := p.max.Load(); c > m && !p.max.CompareAndSwap(m, c); m = p.max.Load() {
	}
	time.Sleep(d)
	p.cur.Add(-1)
}

// A batch without MaxParallel runs the pool width at once, counting the
// submitting goroutine that helps it: two on a two-worker pool, not three.
func TestPoolUnboundedBatchRunsPoolWidth(t *testing.T) {
	p := newPool(2)
	defer p.Close()

	var pk peak
	if err := p.Run(8, RunOpts{}, func(int) { pk.run(5 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	if got := pk.max.Load(); got > 2 {
		t.Fatalf("an 8-task batch on a 2-worker pool peaked at %d tasks at once, want at most 2", got)
	}
}

// Map returns the outcomes in index order, or the lowest failing index's
// error even when a higher index fails first, and runs at most
// Concurrent(engineWorkers) tasks at once.
func TestMap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	got, err := Map(20, 1, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map outcome %d is %d, want %d", i, v, i*i)
		}
	}

	// Index 1 fails only after index 5 has failed.
	fifth := make(chan struct{})
	_, err = Map(8, 1, func(i int) (int, error) {
		switch i {
		case 1:
			select {
			case <-fifth:
			case <-time.After(5 * time.Second):
			}
			return 0, errors.New("index 1")
		case 5:
			defer close(fifth)
			return 0, errors.New("index 5")
		}
		return i, nil
	})
	if err == nil || err.Error() != "index 1" {
		t.Fatalf("Map returned %v, want the error of index 1", err)
	}

	for engineWorkers, want := range map[int]int64{1: 2, 2: 1} {
		var pk peak
		if _, err := Map(16, engineWorkers, func(int) (struct{}, error) {
			pk.run(2 * time.Millisecond)
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := pk.max.Load(); got > want {
			t.Errorf("Map with %d engine workers at GOMAXPROCS 2 ran %d tasks at once, want at most %d", engineWorkers, got, want)
		}
	}
}

// Concurrent splits GOMAXPROCS between runs of that many engine workers
// each, and allows at least one: Workers 4 on 8 procs runs two at once.
func TestConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for workers, want := range map[int]int{0: 8, 1: 8, 3: 2, 4: 2, 8: 1, 16: 1} {
		if got := Concurrent(workers); got != want {
			t.Errorf("Concurrent(%d) at GOMAXPROCS 8 = %d, want %d", workers, got, want)
		}
	}
}

// Tasks are handed out in index order, so slot-indexed writes are complete
// and each index runs exactly once, for any worker/MaxParallel mix.
func TestPoolCoversAllIndices(t *testing.T) {
	p := newPool(3)
	defer p.Close()
	for _, par := range []int{0, 1, 5, 64} {
		const n = 57
		var hits [n]atomic.Int64
		if err := p.Run(n, RunOpts{MaxParallel: par}, func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("MaxParallel=%d: index %d executed %d times", par, i, got)
			}
		}
	}
	if err := p.Run(0, RunOpts{}, func(int) { t.Fatal("fn called for empty batch") }); err != nil {
		t.Fatal(err)
	}
}

// A finished batch must become collectable while the pool lives on: the
// open-batch list may not keep it (or what its task closure captured — in
// a figure pipeline, a whole snapshot cache) reachable in spare slice
// capacity.
func TestPoolReleasesFinishedBatch(t *testing.T) {
	p := newPool(2)
	defer p.Close()

	// An earlier, still-open batch pins the slice so the finished one is
	// removed from the middle/tail rather than the list emptying outright.
	gate := make(chan struct{})
	open := p.Submit(1, RunOpts{}, func(int) { <-gate })

	collected := make(chan struct{})
	func() {
		payload := new([1 << 16]byte) // what the closure captures
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(collected) })
		if err := p.Run(4, RunOpts{}, func(int) { payload[0]++ }); err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("finished batch still reachable from the live pool")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(gate)
	if err := open.Wait(nil); err != nil {
		t.Fatal(err)
	}
}
