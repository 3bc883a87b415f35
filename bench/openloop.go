package main

import "time"

// pacer is the open-loop schedule: request i is due at start + i·every,
// whether or not earlier requests have completed. The caller times each
// request from its due instant, not from when it was actually sent, so a
// stall is charged to every request that had to wait behind it; pacer
// accounts how late the generator itself ran. every == 0 is the unpaced
// loop: every request is due at once and the caller's window is the only
// brake.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)

	start time.Time
	every time.Duration
	sent  int

	lateMax  time.Duration // worst lateness of any request
	lateLast time.Duration // lateness of the most recent request: a backlog that grows shows here
}

func newPacer(ratePerSec int) *pacer {
	p := &pacer{now: time.Now, sleep: time.Sleep}
	if ratePerSec > 0 {
		p.every = time.Second / time.Duration(ratePerSec)
	}
	p.start = p.now()
	return p
}

// next blocks until the next request is due and returns its due instant.
// When the generator is behind schedule it returns at once, so it catches
// up in a burst and the requests keep their original due instants.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.sent) * p.every)
	p.sent++
	if p.every == 0 {
		return p.now()
	}
	if wait := due.Sub(p.now()); wait > 0 {
		p.sleep(wait)
	}
	late := p.now().Sub(due)
	if late < 0 {
		late = 0
	}
	p.lateLast = late
	if late > p.lateMax {
		p.lateMax = late
	}
	return due
}
