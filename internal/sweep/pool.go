package sweep

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"

	"dragonfly/internal/sim"
)

// The sweep worker pool. One persistent, process-wide pool executes every
// multi-run entry point of the simulator — load sweeps (Grid.Run), Map's
// seed replicas and interference runs, RestoreOrRun's figure pipeline and
// scheduler study and the points of a dfserved lease all submit whole
// simulation runs here, so the machine is never oversubscribed by
// independent sweeps racing each other.
//
// Invariants:
//
//   - Tasks of one batch are handed out strictly in index order, so any
//     caller that writes task i's outcome into slot i of a pre-sized slice
//     gets deterministic, worker-count-independent results — and a caller
//     that wants its work done front to back (a figure pipeline in paper
//     order) submits it as ONE batch in that order.
//   - Between batches, the earliest submitted goes first, at task
//     granularity — a running task is never preempted.
//   - Run executes tasks on the submitting goroutine too (it "helps" its
//     own batch), so a nested Run issued from inside a pool task always
//     makes progress even when every pool worker is busy: the pool cannot
//     deadlock on nesting, and a MaxParallel=1 batch is truly serial.
//
// Cancellation is cooperative at task granularity: cancelling a batch
// stops handing out its remaining tasks, while already-running tasks
// complete normally (a simulation is not interrupted mid-run; combined
// with checkpointing this is what makes an interrupted pipeline resumable
// without torn state).

// Pool is a persistent worker pool for whole simulation runs. The zero
// value is not usable; construct with newPool or use Shared.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	width   int      // worker goroutines, at least 1: an unbounded batch's bound
	batches []*Batch // open batches in submission order
	closed  bool
}

// Batch is a submitted group of tasks. It is created by Pool.Submit and
// observed through Wait/cancelBatch.
type Batch struct {
	fn       func(int)
	total    int // original task count
	bound    int // claim bound: == total, shrunk to next by Cancel
	next     int // next index to hand out
	inflight int // claimed and currently executing
	done     int // completed
	max      int // max concurrently executing tasks of this batch
	finished chan struct{}
	finSent  bool
}

// RunOpts configures one batch submission.
type RunOpts struct {
	// MaxParallel bounds how many tasks of this batch execute
	// concurrently (<= 0: the pool width, counting the submitting
	// goroutine). Sweeps over large networks use it to bound resident
	// Network instances.
	MaxParallel int
	// Context, when non-nil, cancels the batch: remaining tasks are
	// dropped (running ones complete) and Run/Wait return ctx.Err().
	Context context.Context
}

// newPool starts a pool with the given number of worker goroutines. A
// zero-worker pool is legal: Run still completes batches on the submitting
// goroutine, one task at a time (useful for strictly serial runs).
func newPool(workers int) *Pool {
	p := &Pool{width: max(workers, 1)}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, GOMAXPROCS workers wide when it is
// first called. Every multi-run entry point of the module — Grid.Run, Map,
// RestoreOrRun and the lease runners — schedules through it, so concurrent
// sweeps share one machine-wide scheduler instead of each spawning its own
// goroutine army.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = newPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Concurrent is how many runs of engineWorkers engine workers each share
// GOMAXPROCS, the one parallelism budget: at least one.
func Concurrent(engineWorkers int) int {
	return max(1, runtime.GOMAXPROCS(0)/max(engineWorkers, 1))
}

// Map runs fn(0..n-1) on the shared pool, Concurrent(engineWorkers) at a
// time, and returns the outcomes in index order, or the error of the
// lowest index that failed. It is the one fan-out of independent runs that
// keep no checkpoint: seed replicas and interference runs.
func Map[T any](n, engineWorkers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	Shared().Run(n, RunOpts{MaxParallel: Concurrent(engineWorkers)}, func(i int) { //nolint:errcheck // no context to cancel it
		out[i], errs[i] = fn(i)
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// retired is the process's one free list of networks whose runs have
// finished, whatever cache or template they were restored from: the next
// restore of any SnapshotCache overwrites one in place (see
// sim.RestoreNetworkInto) instead of allocating a fresh network, so the
// jobs a daemon serves one after another restore into the networks earlier
// jobs retired. It keeps at most GOMAXPROCS networks — one per simulation
// that can run at once — and drops any surplus to the GC, so an idle
// process retains at most that many, each of the largest shape it has run.
var retired struct {
	mu   sync.Mutex
	nets []*sim.Network
}

// takeRetired pops a retired network, or returns nil when there is none.
func takeRetired() *sim.Network {
	retired.mu.Lock()
	defer retired.mu.Unlock()
	n := len(retired.nets)
	if n == 0 {
		return nil
	}
	net := retired.nets[n-1]
	retired.nets[n-1] = nil
	retired.nets = retired.nets[:n-1]
	return net
}

// retire parks a finished network for the next restore, or leaves it to the
// GC when the list is full.
func retire(net *sim.Network) {
	retired.mu.Lock()
	if len(retired.nets) < runtime.GOMAXPROCS(0) {
		retired.nets = append(retired.nets, net)
	}
	retired.mu.Unlock()
}

// Close stops the worker goroutines once the queue drains. It is intended
// for throwaway pools in tests; the shared pool is never closed. Batches
// must not be submitted after Close.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Submit enqueues fn(0..n-1) as a batch and returns immediately. The
// caller must eventually Wait. On a zero-worker pool a submitted batch
// only advances while some goroutine Runs or Waits on it (Wait does not
// help; prefer Run unless overlapping several batches).
func (p *Pool) Submit(n int, opts RunOpts, fn func(i int)) *Batch {
	b := &Batch{
		fn:       fn,
		total:    n,
		bound:    n,
		max:      opts.MaxParallel,
		finished: make(chan struct{}),
	}
	if b.max <= 0 {
		b.max = p.width
	}
	p.mu.Lock()
	if n == 0 {
		b.finSent = true
		p.mu.Unlock()
		close(b.finished)
		return b
	}
	p.batches = append(p.batches, b)
	p.cond.Broadcast()
	p.mu.Unlock()
	if ctx := opts.Context; ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				p.cancelBatch(b)
			case <-b.finished:
			}
		}()
	}
	return b
}

// Run executes fn(i) for every i in [0,n) on the pool and blocks until the
// batch completes or opts.Context is cancelled (returning ctx.Err() if any
// task was dropped). The calling goroutine participates in executing its
// own batch.
func (p *Pool) Run(n int, opts RunOpts, fn func(i int)) error {
	b := p.Submit(n, opts, fn)
	p.help(b)
	return b.Wait(opts.Context)
}

// Wait blocks until the batch has no outstanding tasks: all completed, or
// cancelled with the running remainder drained (a batch submitted with a
// Context is cancelled by it — see Submit — so Wait never hangs on a dead
// context). It returns ctx.Err() when the batch fell short of completion,
// nil otherwise. A nil ctx is allowed.
func (b *Batch) Wait(ctx context.Context) error {
	<-b.finished
	if b.done < b.total {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return context.Canceled
	}
	return nil
}

// cancelBatch stops handing out the batch's remaining tasks. Running tasks
// complete; Wait then returns.
func (p *Pool) cancelBatch(b *Batch) {
	p.mu.Lock()
	b.bound = min(b.bound, b.next) // nothing beyond what is already claimed
	fin := p.finishLocked(b)
	p.cond.Broadcast()
	p.mu.Unlock()
	if fin {
		close(b.finished)
	}
}

// finishLocked detects batch completion (all claimable tasks claimed and
// completed), removes the batch from the open list, and reports whether
// the caller must close b.finished. Must hold p.mu.
func (p *Pool) finishLocked(b *Batch) bool {
	if b.finSent || b.next < b.bound || b.done < b.next {
		return false
	}
	b.finSent = true
	// slices.Delete zeroes the vacated tail slot: a plain shift would keep
	// the last *Batch — and whatever its task closure captured, a whole
	// snapshot cache in a figure pipeline — reachable in spare capacity.
	if i := slices.Index(p.batches, b); i >= 0 {
		p.batches = slices.Delete(p.batches, i, i+1)
	}
	return true
}

// pick returns the earliest submitted batch with a claimable task, or nil.
// Must hold p.mu.
func (p *Pool) pick() *Batch {
	for _, b := range p.batches {
		if b.next < b.bound && b.inflight < b.max {
			return b
		}
	}
	return nil
}

// worker is the loop of one pool goroutine.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		b := p.pick()
		if b == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		i := p.claim(b)
		p.mu.Unlock()
		b.fn(i)
		p.taskDone(b)
		p.mu.Lock()
	}
}

// claim hands out the batch's next task index. Must hold p.mu; the caller
// must have checked claimability.
func (p *Pool) claim(b *Batch) int {
	i := b.next
	b.next++
	b.inflight++
	return i
}

// help lets the submitting goroutine execute tasks of its own batch until
// none remain claimable, waiting out phases where the batch is saturated
// at MaxParallel.
func (p *Pool) help(b *Batch) {
	p.mu.Lock()
	for {
		if b.next >= b.bound {
			break
		}
		if b.inflight >= b.max {
			p.cond.Wait()
			continue
		}
		i := p.claim(b)
		p.mu.Unlock()
		b.fn(i)
		p.taskDone(b)
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// taskDone records one completed task and fires completion.
func (p *Pool) taskDone(b *Batch) {
	p.mu.Lock()
	b.inflight--
	b.done++
	fin := p.finishLocked(b)
	p.cond.Broadcast()
	p.mu.Unlock()
	if fin {
		close(b.finished)
	}
}
