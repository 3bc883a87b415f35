// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every experiment in this repository: the
// paper ("Designing Large Electronic Mail Systems", ICDCS 1988) evaluates
// its algorithms "using simulation", and all of its algorithms are driven by
// messages that "arrive after an unpredictable but finite delay, without
// error and in sequence" (§3.3.1-A). A discrete-event scheduler with a
// virtual clock models exactly that while keeping runs reproducible.
//
// A Scheduler owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order, which makes every
// run with the same seed byte-for-byte deterministic.
package sim

import (
	"container/heap"
	"math/rand"

	"github.com/largemail/largemail/internal/clock"
)

// Time is clock.Time, declared in a leaf package so that the mail layers
// stamp messages without linking this kernel.
type Time = clock.Time

// Unit is one paper "time unit" expressed in microticks.
const Unit = clock.Unit

// Units converts a float amount of paper time units to Time, rounding to the
// nearest microtick.
func Units(u float64) Time {
	if u < 0 {
		return Time(u*float64(Unit) - 0.5)
	}
	return Time(u*float64(Unit) + 0.5)
}

// Runner is what a scheduled event does when it fires.
type Runner interface{ Run() }

// Event is one scheduling record. The zero value is ready to use and the
// record belongs to whoever declared it: a caller embeds an Event in the
// structure the timer is about (a pending transfer, a message in flight),
// hands its address to Scheduler.Schedule, and keeps the structure alive
// and in place — the scheduler holds the pointer, never a copy — until the
// event has fired or been canceled. At and After allocate a record for
// callers that have none.
type Event struct {
	at    Time
	seq   uint64
	r     Runner
	index int // position in the heap plus one; 0 while not pending
}

// At reports the virtual time the event fires (or last fired) at.
func (e *Event) At() Time { return e.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i + 1
	h[j].index = j + 1
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	*h = append(*h, e)
	e.index = len(*h)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = 0
	*h = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: all simulated activity runs on the goroutine that calls
// Step, Run, or RunUntil.
type Scheduler struct {
	now       Time
	seq       uint64
	events    eventHeap
	rng       *rand.Rand
	processed uint64
}

// New returns a Scheduler whose clock starts at 0 and whose random source is
// seeded with seed. Identical seeds produce identical runs.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Scheduler) Pending() int { return len(s.events) }

// Schedule arms the caller-owned record e to run r at virtual time t. A time
// in the past (t before Now) fires at the current time instead, preserving
// causality. Arming a record that is still pending replaces its time and
// runner: one record is one timer, so a retry that re-arms "its" timer can
// never leave the superseded one behind to fire as well. Every call takes
// the next place in the same-instant order, exactly as a Cancel followed by a
// fresh At would.
func (s *Scheduler) Schedule(e *Event, t Time, r Runner) {
	if t < s.now {
		t = s.now
	}
	e.at, e.seq, e.r = t, s.seq, r
	s.seq++
	if e.index > 0 {
		heap.Fix(&s.events, e.index-1)
		return
	}
	heap.Push(&s.events, e)
}

// funcRunner adapts a plain function to Runner.
type funcRunner func()

func (f funcRunner) Run() { f() }

// At schedules fn to run at virtual time t on a record of its own; see
// Schedule for the clamping of past times.
func (s *Scheduler) At(t Time, fn func()) *Event {
	e := new(Event)
	s.Schedule(e, t, funcRunner(fn))
	return e
}

// After schedules fn to run d microticks from now. Negative delays are
// treated as zero.
func (s *Scheduler) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Canceling an event that has
// already fired or been canceled is a no-op.
func (s *Scheduler) Cancel(e *Event) {
	if e != nil && e.index > 0 {
		heap.Remove(&s.events, e.index-1)
	}
}

// Step fires the next pending event and advances the clock to its time. It
// reports whether an event fired. The record is out of the queue before its
// runner is called, so the runner may re-arm or recycle it.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*Event)
	s.now = e.at
	s.processed++
	e.r.Run()
	return true
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// deadline. Events scheduled later stay pending.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor fires events within the next d microticks and advances the clock by
// exactly d.
func (s *Scheduler) RunFor(d Time) { s.RunUntil(s.now + d) }
