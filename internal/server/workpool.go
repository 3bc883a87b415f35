// Bounded pull-based work dispatch for the wire transport.
//
// The classic server loop gives every accepted connection its own handler
// goroutine; at high connection counts that is thousands of mostly-idle
// goroutines, each pinning a stack, and the scheduler — not the operator —
// decides how much handler work runs at once. Stolyar's pull-based dispatch
// results motivate the inversion implemented here: a fixed pool of workers
// PULLS work from per-connection queues instead of connections pushing
// goroutines at the runtime. Concurrency is bounded by the pool size, and
// because a queue is held by at most one worker at a time, items of one
// queue execute in strict FIFO order — the property the wire protocol's
// exactly-once auditors rely on for per-connection submit ordering.
package server

import (
	"runtime"
	"sync"
)

// WorkPool is a bounded worker pool draining per-connection WorkQueues.
// Queues with pending items wait on a FIFO run queue; each of the pool's
// workers repeatedly pops one queue, drains the items it had at pickup (in
// order), and re-appends the queue if more arrived meanwhile. At most one
// worker holds a given queue at any instant, so per-queue ordering is total
// even though the pool executes many queues concurrently.
type WorkPool struct {
	mu         sync.Mutex
	cond       *sync.Cond
	head, tail *WorkQueue // queues with pending items, FIFO, linked through next
	closed     bool
	wg         sync.WaitGroup
}

// DefaultWireWorkers is the worker count a zero configuration gets:
// one worker per scheduler thread.
func DefaultWireWorkers() int { return runtime.GOMAXPROCS(0) }

// NewWorkPool starts a pool of the given size (<=0 takes
// DefaultWireWorkers). Close releases the workers.
func NewWorkPool(workers int) *WorkPool {
	if workers <= 0 {
		workers = DefaultWireWorkers()
	}
	p := &WorkPool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Close stops the workers after their in-progress batches finish. Items
// still queued are dropped — the pool is closed on server shutdown, after
// every connection is gone, so there is no one left to answer anyway.
func (p *WorkPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.head, p.tail = nil, nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *WorkPool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.head == nil && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		q := p.head
		if p.head, q.next = q.next, nil; p.head == nil {
			p.tail = nil
		}
		p.mu.Unlock()
		q.drain()
	}
}

// schedule appends q to the run queue. A queue is on it at most once (its
// scheduled flag), which is what lets the list run through the queues
// themselves and cost nothing to grow.
func (p *WorkPool) schedule(q *WorkQueue) {
	p.mu.Lock()
	if !p.closed {
		if p.tail == nil {
			p.head = q
		} else {
			p.tail.next = q
		}
		p.tail = q
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Runner is one unit of queued work. The queue holds the value it is given
// and nothing else, so an item that is a pointer to a caller-owned (pooled)
// record costs no allocation to enqueue.
type Runner interface{ Run() }

// funcRunner adapts a plain function to Runner.
type funcRunner func()

func (f funcRunner) Run() { f() }

// WorkQueue is one connection's pending work. Enqueue blocks while the
// queue is at capacity — that stall propagates to the connection's reader
// goroutine and from there to the peer's TCP window, which is the
// transport's backpressure: a client cannot hold more than the queue bound
// plus a socket buffer of unprocessed requests against the server.
type WorkQueue struct {
	pool     *WorkPool
	cap      int
	batchEnd Runner     // run by the draining worker after each batch; may be nil
	next     *WorkQueue // the pool's run queue; guarded by pool.mu

	mu        sync.Mutex
	notFull   *sync.Cond
	items     []Runner
	spare     []Runner // the previous batch's slice, emptied, for the next swap
	scheduled bool     // on the pool's run queue or held by a worker
	closed    bool
}

// NewQueue creates a queue drained by this pool. cap <= 0 means 64. batchEnd,
// when not nil, runs on the draining worker each time it has finished the
// items it picked up — the point where a connection flushes the responses
// the batch produced.
func (p *WorkPool) NewQueue(cap int, batchEnd Runner) *WorkQueue {
	if cap <= 0 {
		cap = 64
	}
	q := &WorkQueue{pool: p, cap: cap, batchEnd: batchEnd}
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Enqueue is EnqueueRunner for a plain function.
func (q *WorkQueue) Enqueue(fn func()) bool { return q.EnqueueRunner(funcRunner(fn)) }

// EnqueueRunner appends one item, blocking while the queue is full. It
// reports false when the queue was closed (the item is dropped).
func (q *WorkQueue) EnqueueRunner(r Runner) bool {
	q.mu.Lock()
	for len(q.items) >= q.cap && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, r)
	need := !q.scheduled
	if need {
		q.scheduled = true
	}
	q.mu.Unlock()
	if need {
		q.pool.schedule(q)
	}
	return true
}

// Close marks the queue dead: pending items are dropped and blocked
// Enqueues return false. Safe to call while a worker drains the queue.
func (q *WorkQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.notFull.Broadcast()
}

// drain runs the queue's current batch in order, then batchEnd, then
// reschedules the queue if more items arrived while the batch ran. Exactly
// one worker runs drain for a given queue at a time (guarded by the
// scheduled flag), which is what makes per-queue execution order total —
// and what lets the batch slice and the spare one simply trade places.
func (q *WorkQueue) drain() {
	q.mu.Lock()
	batch := q.items
	q.items, q.spare = q.spare, nil
	q.mu.Unlock()
	q.notFull.Broadcast()
	for _, r := range batch {
		r.Run()
	}
	if q.batchEnd != nil {
		q.batchEnd.Run()
	}
	clear(batch) // a finished item must not stay reachable from the queue
	q.mu.Lock()
	q.spare = batch[:0]
	if len(q.items) > 0 && !q.closed {
		q.mu.Unlock()
		q.pool.schedule(q)
		return
	}
	q.scheduled = false
	q.mu.Unlock()
}
