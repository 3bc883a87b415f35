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
		q := p.NewQueue(32, nil)
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
		q := p.NewQueue(8, nil)
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
	q := p.NewQueue(2, nil)
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
	hold := p.NewQueue(4, nil)
	hold.Enqueue(func() { close(started); <-gate })
	<-started // the only worker is now pinned on hold's item

	q := p.NewQueue(1, nil)
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

// pingRunner is a caller-owned work item: Run reports on a channel.
type pingRunner struct{ ran chan struct{} }

func (r *pingRunner) Run() { r.ran <- struct{}{} }

// TestWorkQueueRunnerAllocs: enqueueing a Runner the caller owns costs
// nothing once the queue's two item slices have grown — no closure, no
// wrapper, and no re-grown batch slice or run-queue entry per drain.
func TestWorkQueueRunnerAllocs(t *testing.T) {
	p := NewWorkPool(1)
	defer p.Close()
	var ends atomic.Int64
	q := p.NewQueue(8, funcRunner(func() { ends.Add(1) }))
	r := &pingRunner{ran: make(chan struct{}, 1)}
	cycle := func() {
		if !q.EnqueueRunner(r) {
			t.Fatal("enqueue on open queue returned false")
		}
		<-r.ran
	}
	cycle()
	cycle() // both item slices have been the batch once
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("EnqueueRunner + drain: %v allocs, want 0", n)
	}
	if ends.Load() == 0 {
		t.Error("batch end never ran")
	}
}

// TestWorkQueueBatchEnd: the batch-end hook runs on the draining worker after
// the items it picked up and before any later item — once per batch, however
// many items the batch had.
func TestWorkQueueBatchEnd(t *testing.T) {
	p := NewWorkPool(2)
	defer p.Close()
	var (
		mu      sync.Mutex
		log     []int // item numbers, and -1 for a batch end
		release = make(chan struct{})
		done    = make(chan struct{})
	)
	q := p.NewQueue(64, funcRunner(func() {
		mu.Lock()
		log = append(log, -1)
		mu.Unlock()
	}))
	const items = 20
	for i := 0; i < items; i++ {
		i := i
		q.Enqueue(func() {
			if i == 0 {
				<-release // hold the first batch until everything is queued
			}
			mu.Lock()
			log = append(log, i)
			mu.Unlock()
			if i == items-1 {
				close(done)
			}
		})
	}
	close(release)
	<-done
	// The last item's batch end may still be on its way.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n, last := len(log), 0
		if n > 0 {
			last = log[n-1]
		}
		mu.Unlock()
		if last == -1 && n > items {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch end after the last item")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	next, ends := 0, 0
	for i, v := range log {
		if v == -1 {
			if ends++; i == 0 || log[i-1] == -1 {
				t.Fatalf("batch end without a batch at %d: %v", i, log)
			}
			continue
		}
		if v != next {
			t.Fatalf("items out of order: %v", log)
		}
		next++
	}
	if next != items || ends > 3 {
		t.Fatalf("%d items, %d batch ends (want %d items in at most 3 batches): %v", next, ends, items, log)
	}
}
