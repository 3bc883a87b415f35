package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkQueueOrdering: items of one queue run in submission order even
// with many workers and many competing queues.
func TestWorkQueueOrdering(t *testing.T) {
	p := NewWorkPool(8)
	defer p.Close()

	const queues, items = 16, 500
	var wg sync.WaitGroup
	wg.Add(queues)
	errs := make(chan int, queues)
	for qi := 0; qi < queues; qi++ {
		q := p.NewQueue(32)
		go func(qi int, q *WorkQueue) {
			defer wg.Done()
			var last int64 = -1
			var done sync.WaitGroup
			for i := 0; i < items; i++ {
				i := int64(i)
				done.Add(1)
				if !q.Enqueue(func() {
					if i != last+1 {
						errs <- qi
					}
					last = i
					done.Done()
				}) {
					t.Error("enqueue on open queue returned false")
					done.Done()
				}
			}
			done.Wait()
		}(qi, q)
	}
	wg.Wait()
	select {
	case qi := <-errs:
		t.Fatalf("queue %d executed out of order", qi)
	default:
	}
}

// TestWorkPoolBoundsConcurrency: with W workers, at most W items run at
// once, no matter how many queues feed the pool.
func TestWorkPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewWorkPool(workers)
	defer p.Close()

	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for qi := 0; qi < 24; qi++ {
		q := p.NewQueue(8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			q.Enqueue(func() {
				defer wg.Done()
				n := running.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				running.Add(-1)
			})
		}
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent items, pool bound is %d", got, workers)
	}
}

// TestWorkQueueBackpressure: Enqueue blocks at capacity and resumes once a
// worker drains the queue.
func TestWorkQueueBackpressure(t *testing.T) {
	p := NewWorkPool(1)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	q := p.NewQueue(2)
	q.Enqueue(func() { close(started); <-gate }) // occupies the only worker
	<-started                                    // the worker now holds the (drained-empty) queue
	q.Enqueue(func() {})
	q.Enqueue(func() {}) // fills the queue to cap while the worker is busy

	blocked := make(chan struct{})
	go func() {
		q.Enqueue(func() {}) // must block: queue full
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Error("enqueue did not block on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue never unblocked after drain")
	}
}

// TestWorkQueueClose: close drops pending items and releases blocked
// enqueuers with a false result.
func TestWorkQueueClose(t *testing.T) {
	p := NewWorkPool(1)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	hold := p.NewQueue(4)
	hold.Enqueue(func() { close(started); <-gate })
	<-started // the only worker is now pinned on hold's item

	q := p.NewQueue(1)
	ran := make(chan struct{}, 4)
	q.Enqueue(func() { ran <- struct{}{} }) // pending: worker is held
	res := make(chan bool, 1)
	go func() {
		res <- q.Enqueue(func() { ran <- struct{}{} }) // blocked: queue full
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if got := <-res; got {
		t.Error("enqueue on closed queue reported true")
	}
	if !hold.Enqueue(func() {}) {
		t.Error("unrelated queue affected by close")
	}
	close(gate)
	time.Sleep(20 * time.Millisecond)
	select {
	case <-ran:
		t.Error("item ran after queue close")
	default:
	}
}
