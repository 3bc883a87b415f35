package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestUnitsRoundTrip(t *testing.T) {
	cases := []struct {
		units float64
		want  Time
	}{
		{0, 0},
		{1, 1000},
		{0.5, 500},
		{2.25, 2250},
		{-1, -1000},
		{-0.5, -500},
	}
	for _, c := range cases {
		if got := Units(c.units); got != c.want {
			t.Errorf("Units(%v) = %d, want %d", c.units, got, c.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Units(1.5).String(); got != "1.5u" {
		t.Errorf("String() = %q, want %q", got, "1.5u")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-instant events fired out of scheduling order: %v", order)
	}
}

func TestAfterRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at Time = -1
	s.At(100, func() {
		s.At(10, func() { at = s.Now() })
	})
	s.Run()
	if at != 100 {
		t.Errorf("past event fired at %d, want 100 (clamped)", at)
	}
}

func TestNegativeAfterClampsToZeroDelay(t *testing.T) {
	s := New(1)
	fired := false
	s.At(7, func() {
		s.After(-100, func() { fired = s.Now() == 7 })
	})
	s.Run()
	if !fired {
		t.Error("negative-delay event did not fire at the current instant")
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	s.Cancel(nil)
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if s.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", s.Processed())
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(20, func() { fired = true })
	s.At(10, func() { s.Cancel(e) })
	s.Run()
	if fired {
		t.Error("event canceled at t=10 still fired at t=20")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("RunUntil(12) fired %v, want [5 10]", fired)
	}
	if s.Now() != 12 {
		t.Errorf("Now() = %v after RunUntil(12), want 12", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %v, want all 4", fired)
	}
}

func TestRunUntilEventAtDeadlineFires(t *testing.T) {
	s := New(1)
	fired := false
	s.At(10, func() { fired = true })
	s.RunUntil(10)
	if !fired {
		t.Error("event exactly at the deadline did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.At(3, func() {})
	s.Run()
	s.RunFor(7)
	if s.Now() != 10 {
		t.Errorf("Now() = %v, want 10", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step() on empty scheduler returned true")
	}
}

// A record that re-arms itself from inside Run fires periodically until
// cancelled; a second cancel is a no-op.
func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []Time
	tk := every(s, 10, func() {
		ticks = append(ticks, s.Now())
	})
	s.RunUntil(35)
	tk.stop()
	tk.stop() // idempotent
	s.RunUntil(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, want := range []Time{10, 20, 30} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

// A record cancelled from inside its own Run is not fired again.
func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *ticker
	tk = every(s, 5, func() {
		n++
		if n == 2 {
			tk.stop()
		}
	})
	s.Run()
	if n != 2 {
		t.Errorf("ticker fired %d times, want 2", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var fired []Time
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth == 0 {
				return
			}
			d := Time(s.Rand().Intn(100))
			s.After(d, func() {
				fired = append(fired, s.Now())
				schedule(depth - 1)
				schedule(depth - 1)
			})
		}
		schedule(6)
		s.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events, firing order is non-decreasing in time,
// and the clock after Run equals the max scheduled time.
func TestPropertyFiringOrderMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(99)
		var fired []Time
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if s.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestProcessedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed() = %d, want 5", s.Processed())
	}
}

// refScheduler is the kernel as it stood before records became caller-owned:
// every event a heap-allocated closure, cancellation a flag plus a heap
// removal, the ticker re-arming through After. It is kept as the reference
// the property test below holds the present kernel to.
type refScheduler struct {
	now       Time
	seq       uint64
	events    refHeap
	processed uint64
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // position in the heap, -1 once popped
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (s *refScheduler) At(t Time, fn func()) *refEvent {
	if t < s.now {
		t = s.now
	}
	e := &refEvent{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

func (s *refScheduler) After(d Time, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

func (s *refScheduler) Cancel(e *refEvent) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&s.events, e.index)
	}
}

func (s *refScheduler) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*refEvent)
		if e.canceled {
			continue
		}
		s.now = e.at
		s.processed++
		e.fn()
		return true
	}
	return false
}

func (s *refScheduler) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Every is the reference ticker: a fresh After per tick.
func (s *refScheduler) Every(period Time, fn func()) (stop func()) {
	var ev *refEvent
	done := false
	var arm func()
	arm = func() {
		ev = s.After(period, func() {
			if done {
				return
			}
			fn()
			if !done {
				arm()
			}
		})
	}
	arm()
	return func() {
		if !done {
			done = true
			s.Cancel(ev)
		}
	}
}

// kernel is what the property test needs of a scheduler, so one random
// program can drive both.
type kernel struct {
	now       func() Time
	at        func(t Time, fn func()) (cancel func())
	after     func(d Time, fn func()) (cancel func())
	owned     func() (arm func(t Time, fn func()), cancel func()) // one caller-owned record
	every     func(period Time, fn func()) (stop func())
	runUntil  func(Time)
	processed func() uint64
}

// ownedRecord is a caller-owned record: the Event embedded in the thing the
// timer is about, which is also its Runner.
type ownedRecord struct {
	ev Event
	fn func()
}

func (o *ownedRecord) Run() { o.fn() }

// ticker is a periodic caller-owned record: it re-arms its own Event from
// inside Run until stopped.
type ticker struct {
	ev     Event
	s      *Scheduler
	period Time
	fn     func()
	done   bool
}

func (t *ticker) Run() {
	t.fn()
	if !t.done {
		t.s.Schedule(&t.ev, t.s.Now()+t.period, t)
	}
}

// every arms a ticker that first fires one period from now.
func every(s *Scheduler, period Time, fn func()) *ticker {
	t := &ticker{s: s, period: period, fn: fn}
	s.Schedule(&t.ev, s.Now()+period, t)
	return t
}

func (t *ticker) stop() {
	t.done = true
	t.s.Cancel(&t.ev)
}

func liveKernel() kernel {
	s := New(1)
	return kernel{
		now: s.Now,
		at: func(t Time, fn func()) func() {
			e := s.At(t, fn)
			return func() { s.Cancel(e) }
		},
		after: func(d Time, fn func()) func() {
			e := s.After(d, fn)
			return func() { s.Cancel(e) }
		},
		owned: func() (func(Time, func()), func()) {
			o := new(ownedRecord)
			return func(t Time, fn func()) {
				o.fn = fn
				s.Schedule(&o.ev, t, o)
			}, func() { s.Cancel(&o.ev) }
		},
		every:     func(p Time, fn func()) func() { return every(s, p, fn).stop },
		runUntil:  s.RunUntil,
		processed: s.Processed,
	}
}

func refKernel() kernel {
	s := new(refScheduler)
	return kernel{
		now: func() Time { return s.now },
		at: func(t Time, fn func()) func() {
			e := s.At(t, fn)
			return func() { s.Cancel(e) }
		},
		after: func(d Time, fn func()) func() {
			e := s.After(d, fn)
			return func() { s.Cancel(e) }
		},
		// The reference spelling of "re-arm my timer": cancel the old event,
		// schedule a new one.
		owned: func() (func(Time, func()), func()) {
			var e *refEvent
			return func(t Time, fn func()) {
					s.Cancel(e)
					e = s.At(t, fn)
				}, func() {
					s.Cancel(e)
				}
		},
		every:     s.Every,
		runUntil:  s.RunUntil,
		processed: func() uint64 { return s.processed },
	}
}

type firing struct {
	id int
	at Time
}

// runProgram drives k with the random program seed selects: top-level
// schedules, cancels, re-arms of records that may still be pending, tickers
// that stop themselves or get stopped, and handlers that do all of the same
// from inside a firing. Every decision comes from one rng consumed in firing
// order, so two kernels that fire in the same order see the same program.
func runProgram(seed int64, k kernel) (log []firing, now Time, processed uint64) {
	rng := rand.New(rand.NewSource(seed))
	var cancels []func()
	type rec struct {
		arm    func(Time, func())
		cancel func()
	}
	recs := make([]rec, 6)
	for i := range recs {
		recs[i].arm, recs[i].cancel = k.owned()
		cancels = append(cancels, recs[i].cancel)
	}
	nextID := 0
	var act func(depth int)
	handler := func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, firing{id, k.now()})
			if depth > 0 {
				act(depth - 1)
			}
		}
	}
	act = func(depth int) {
		switch rng.Intn(7) {
		case 0:
			cancels = append(cancels, k.at(k.now()+Time(rng.Intn(60))-10, handler(depth)))
		case 1:
			cancels = append(cancels, k.after(Time(rng.Intn(60))-10, handler(depth)))
		case 2, 3: // arm, or re-arm while pending, a caller-owned record
			recs[rng.Intn(len(recs))].arm(k.now()+Time(rng.Intn(40)), handler(depth))
		case 4:
			cancels[rng.Intn(len(cancels))]()
		case 5:
			left := 1 + rng.Intn(4)
			h := handler(depth)
			var stop func()
			stop = k.every(Time(1+rng.Intn(15)), func() {
				h()
				if left--; left == 0 {
					stop()
				}
			})
			cancels = append(cancels, stop)
		case 6:
			// nothing: lets same-instant runs build up
		}
	}
	for i := 0; i < 300; i++ {
		act(3)
		if rng.Intn(4) == 0 {
			k.runUntil(k.now() + Time(rng.Intn(25)))
		}
	}
	k.runUntil(k.now() + 10_000) // every ticker stops itself; this drains
	return log, k.now(), k.processed()
}

// Property: the caller-owned kernel fires exactly what the closure kernel it
// replaced fires, in the same order, at the same instants, with the same
// clock and Processed() count — the basis of every seeded output staying
// byte-identical.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got, gotNow, gotN := runProgram(seed, liveKernel())
		want, wantNow, wantN := runProgram(seed, refKernel())
		if gotNow != wantNow || gotN != wantN || len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, clock %v, processed %d; reference %d, %v, %d",
				seed, len(got), gotNow, gotN, len(want), wantNow, wantN)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d firings; the program is not exercising the kernel", seed, len(want))
		}
	}
}

func TestScheduleRearmReplaces(t *testing.T) {
	s := New(1)
	var o ownedRecord
	var fired []Time
	o.fn = func() { fired = append(fired, s.Now()) }
	s.Schedule(&o.ev, 10, &o)
	s.Schedule(&o.ev, 30, &o) // still pending: replaced, not added
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after re-arm, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != 30 {
		t.Fatalf("fired %v, want [30]", fired)
	}
	// A record may re-arm itself from inside its own Run.
	n := 0
	o.fn = func() {
		if n++; n < 3 {
			s.Schedule(&o.ev, s.Now()+5, &o)
		}
	}
	s.Schedule(&o.ev, s.Now(), &o)
	s.Run()
	if n != 3 || s.Now() != 40 {
		t.Errorf("self re-arm ran %d times to %v, want 3 times to 40u", n, s.Now())
	}
	s.Cancel(&o.ev) // fired already: no-op
	if s.Processed() != 4 {
		t.Errorf("Processed() = %d, want 4", s.Processed())
	}
}

type nopRunner struct{ ev Event }

func (*nopRunner) Run() {}

// Allocation budget (aim 1): arming and firing a caller-owned record costs
// no garbage.
func TestScheduleAllocs(t *testing.T) {
	s := New(1)
	recs := make([]nopRunner, 64)
	arm := func() {
		for i := range recs {
			s.Schedule(&recs[i].ev, s.Now()+Time(i%7), &recs[i])
		}
		s.Run()
	}
	arm() // grow the heap once
	if n := testing.AllocsPerRun(50, arm); n != 0 {
		t.Errorf("Schedule+fire of 64 caller-owned records allocates %v, want 0", n)
	}
}

// BenchmarkSchedule is the sim-kernel layer bench: arm and fire one
// caller-owned record against a standing queue of 1024.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	standing := make([]nopRunner, 1024)
	for i := range standing {
		s.Schedule(&standing[i].ev, Time(1<<40+i), &standing[i])
	}
	var r nopRunner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(&r.ev, s.Now()+Time(i%1000), &r)
		s.Step()
	}
}
