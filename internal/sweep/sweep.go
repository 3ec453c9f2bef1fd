// Package sweep is the experiment-grid scheduler: a work-stealing
// pool that runs the independent cells of a sweep (experiments ×
// networks × protocols × placements) across the machine's cores.
//
// The shape is the classic per-worker deque design: a batch is
// sharded into contiguous blocks, one deque per worker, and each
// worker drains its own deque from the bottom (LIFO — the block it
// was given, in order) while idle workers steal from the *top* of a
// victim's deque (FIFO — the work its owner will reach last). Blocks
// keep neighbouring grid cells (same experiment, same app state in
// cache) on one worker; stealing keeps every core busy when cell
// costs are wildly uneven, which they are — a TSP cell costs ~100× a
// Barnes cell, so static sharding alone would leave most cores idle
// behind one unlucky worker.
//
// Tasks carry an optional dedup key: two tasks with the same
// non-empty key share one execution and both receive its result. The
// harness keys cells by their resolved engine configuration
// (tmk.Config.Resolve), so aliased configurations — an empty network
// and "ideal", an empty placement and the registered default — never
// run twice in one batch.
//
// A task may fork: Spawn queues a child job on the running worker's
// own deque, where idle workers steal it like any other job, and
// Future.Wait joins it. A waiting worker does not idle and does not
// start another task either — it runs queued children until its own
// is done — so a batch is a fork-join computation on the same workers
// and slots, with no goroutine of its own per child, and at width one
// it is a serial program. The batch ends when nothing is queued or
// running.
//
// A Pool is also the machine's run budget: the experiment service's
// cache-miss path executes through Do on the same pool semantics the
// batch path uses, so HTTP-driven runs and grid sweeps share one
// bounded concurrency story.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one independent unit of a sweep batch.
type Task struct {
	// Key dedups: tasks with the same non-empty Key share one
	// execution (and its result). An empty Key is never shared.
	Key string
	// Do computes the task's value. It must be safe to run
	// concurrently with other tasks' Do.
	Do func(ctx context.Context) (any, error)
}

// Pool runs tasks on a bounded number of workers.
type Pool struct {
	workers int
	// slots is the shared run budget: batch workers and Do callers
	// each hold one slot while executing.
	slots chan struct{}
}

// New builds a pool of the given width; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, slots: make(chan struct{}, workers)}
}

// Workers returns the pool's width.
func (p *Pool) Workers() int { return p.workers }

// Do runs one task under the pool's budget, waiting for a free slot
// first — the experiment service's miss path. Waiting respects ctx.
func (p *Pool) Do(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	select {
	case p.slots <- struct{}{}:
		defer func() { <-p.slots }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return fn(ctx)
}

// job is one execution: a deduplicated root task and the task indices
// it serves, or a spawned child and the future it completes.
type job struct {
	do      func(ctx context.Context) (any, error)
	indices []int
	fut     *Future
}

// deque is one worker's job queue. The owner pushes and pops at the
// bottom (its block in order, then whatever it spawned, newest first);
// thieves steal from the top. A mutex suffices: steals only happen
// once a thief's own deque is empty, so the lock is all but
// uncontended in the steady state.
type deque struct {
	mu   sync.Mutex
	jobs []*job
}

func (d *deque) push(j *job) {
	d.mu.Lock()
	d.jobs = append(d.jobs, j)
	d.mu.Unlock()
}

// popBottom takes the owner's newest job; with childOnly it leaves a
// root task where it is.
func (d *deque) popBottom(childOnly bool) *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.jobs); n > 0 && (!childOnly || d.jobs[n-1].fut != nil) {
		j := d.jobs[n-1]
		d.jobs = d.jobs[:n-1]
		return j
	}
	return nil
}

// stealTop takes a victim's oldest job; with childOnly, its oldest
// spawned child.
func (d *deque) stealTop(childOnly bool) *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, j := range d.jobs {
		if !childOnly || j.fut != nil {
			// Close the gap from the top: only the skipped roots move.
			copy(d.jobs[1:i+1], d.jobs[:i])
			d.jobs[0] = nil
			d.jobs = d.jobs[1:]
			return j
		}
	}
	return nil
}

// batch is the state of one Run: the deques, and what tells an idle
// worker whether to wait for a spawn or to leave.
type batch struct {
	p       *Pool
	ctx     context.Context
	fail    func(error)
	deques  []deque
	results []any
	wg      sync.WaitGroup

	// A worker is idle once it has found every deque empty. Jobs are
	// only queued by a running worker on its own deque, which it looks
	// at again before it may go idle itself, so when every worker that
	// holds a slot is idle nothing is queued or running: the batch is
	// over. (One still waiting for its slot is not needed, and must
	// not be waited for: the slot may be held by an idle worker of a
	// batch in the same position.) Counting idle workers, not jobs,
	// keeps shared state off the per-job path.
	launched atomic.Int32 // worker goroutines, at most p.workers
	active   atomic.Int32 // of those, the ones holding a slot
	idle     atomic.Int32
	over     sync.Once
	done     chan struct{} // closed when the batch is over
	// wake carries one token per spawn to a parked worker. A token left
	// over after its child was taken costs one empty scan.
	wake chan struct{}
}

// worker is one batch goroutine's identity, carried in the context of
// the tasks it runs so Spawn and Wait find its deque.
type worker struct {
	b    *batch
	self int
	ctx  context.Context // the batch's, carrying this worker
}

type workerKey struct{}

// Future is a spawned child's result.
type Future struct {
	done chan struct{}
	v    any
	err  error
}

// Spawn queues fn as a child job of the batch the calling task runs in
// and returns at once. The child goes on the calling worker's own
// deque, where an idle worker may steal it, and runs under a batch
// worker's slot; Run does not return before it has finished, waited
// for or not, and its error fails the batch like a task's. With a ctx
// that is not a batch task's, fn runs here and now.
func Spawn(ctx context.Context, fn func(context.Context) (any, error)) *Future {
	f := &Future{done: make(chan struct{})}
	w, _ := ctx.Value(workerKey{}).(*worker)
	if w == nil {
		f.v, f.err = fn(ctx)
		close(f.done)
		return f
	}
	b := w.b
	b.deques[w.self].push(&job{do: fn, fut: f})
	select {
	case b.wake <- struct{}{}:
	default:
	}
	// A batch of fewer tasks than the pool is wide started fewer
	// workers; children are a reason for the rest.
	if int(b.launched.Load()) < b.p.workers {
		if n := int(b.launched.Add(1)); n <= b.p.workers {
			b.wg.Add(1)
			go b.work(n - 1)
		}
	}
	return f
}

// Wait returns the child's result. Called from a batch task it does
// not idle: until the child is done the worker runs queued children —
// its own newest first, then other workers' oldest — so a pool of
// width one cannot deadlock. It never starts a root task: that would
// put a whole task in front of what may be a short wait.
func (f *Future) Wait(ctx context.Context) (any, error) {
	w, _ := ctx.Value(workerKey{}).(*worker)
	for {
		select {
		case <-f.done:
			return f.v, f.err
		default:
		}
		if w != nil {
			if j := w.b.take(w.self, true); j != nil {
				w.b.exec(w, j)
				continue
			}
		}
		// Nothing queued that may run here: the child is running on
		// another worker (or was dropped by a failed batch).
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// take finds the next job for worker self: its own deque from the
// bottom, then the oldest job of the first non-empty victim, scanning
// from the next worker around the ring.
func (b *batch) take(self int, childOnly bool) *job {
	if j := b.deques[self].popBottom(childOnly); j != nil {
		return j
	}
	for k := 1; k < len(b.deques); k++ {
		if j := b.deques[(self+k)%len(b.deques)].stealTop(childOnly); j != nil {
			return j
		}
	}
	return nil
}

func (b *batch) exec(w *worker, j *job) {
	v, err := j.do(w.ctx)
	if err != nil {
		b.fail(err)
	} else {
		for _, i := range j.indices {
			b.results[i] = v
		}
	}
	if j.fut != nil {
		j.fut.v, j.fut.err = v, err
		close(j.fut.done)
	}
}

// work is one worker: it holds one pool slot for its whole tenure, so
// concurrent batches and Do callers share the budget, and leaves when
// the batch has nothing queued or running.
func (b *batch) work(self int) {
	defer b.wg.Done()
	select {
	case b.p.slots <- struct{}{}:
		defer func() { <-b.p.slots }()
	case <-b.done:
		return
	case <-b.ctx.Done():
		b.fail(b.ctx.Err())
		return
	}
	b.active.Add(1)
	w := &worker{b: b, self: self}
	w.ctx = context.WithValue(b.ctx, workerKey{}, w)
	for {
		if b.ctx.Err() != nil {
			b.fail(b.ctx.Err())
			return
		}
		j := b.take(self, false)
		if j == nil {
			if b.idle.Add(1) == b.active.Load() {
				b.over.Do(func() { close(b.done) })
				return
			}
			// Nothing queued, but a running task may still spawn.
			select {
			case <-b.wake:
				b.idle.Add(-1)
			case <-b.done:
				return
			case <-b.ctx.Done():
			}
			continue
		}
		b.exec(w, j)
	}
}

// Run executes a batch and returns one value per task, in task order.
// Tasks sharing a non-empty Key execute once. A task may Spawn child
// jobs into the batch; Run returns when nothing is queued or running.
// The first task or child error cancels the rest of the batch
// (in-flight jobs finish; queued ones are dropped) and is returned;
// ctx cancellation does the same.
func (p *Pool) Run(ctx context.Context, tasks []Task) ([]any, error) {
	if len(tasks) == 0 {
		return nil, nil
	}

	// Dedup into jobs, preserving first-appearance order so block
	// sharding keeps grid neighbours together.
	jobs := make([]*job, 0, len(tasks))
	byKey := make(map[string]*job, len(tasks))
	for i, t := range tasks {
		if t.Key != "" {
			if j, ok := byKey[t.Key]; ok {
				j.indices = append(j.indices, i)
				continue
			}
		}
		j := &job{do: t.Do, indices: []int{i}}
		if t.Key != "" {
			byKey[t.Key] = j
		}
		jobs = append(jobs, j)
	}

	nw := p.workers
	if nw > len(jobs) {
		nw = len(jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce sync.Once
		firstEr error
	)
	b := &batch{
		p:   p,
		ctx: ctx,
		fail: func(err error) {
			errOnce.Do(func() { firstEr = err; cancel() })
		},
		deques:  make([]deque, p.workers),
		results: make([]any, len(tasks)),
		done:    make(chan struct{}),
		wake:    make(chan struct{}, p.workers),
	}
	// Shard contiguous blocks across the first nw workers' deques. The
	// owner pops from the bottom, so each block is pushed in reverse to
	// execute in order.
	for w := 0; w < nw; w++ {
		lo, hi := len(jobs)*w/nw, len(jobs)*(w+1)/nw
		block := make([]*job, 0, hi-lo)
		for i := hi - 1; i >= lo; i-- {
			block = append(block, jobs[i])
		}
		b.deques[w].jobs = block
	}

	b.launched.Store(int32(nw))
	b.wg.Add(nw)
	for w := 0; w < nw; w++ {
		go b.work(w)
	}
	b.wg.Wait()

	if firstEr != nil {
		return nil, firstEr
	}
	return b.results, nil
}
