package main

import (
	"math"
	"time"
)

// The sandbox is a few cores of a shared host, and what its neighbours do to
// the memory system changes over minutes: a register-only loop repeats
// within a few percent, code that misses the caches and allocates — all of
// this repository — runs 20–35 % slower in one quarter of an hour than in
// the next, and the medians of ten set-ups taken 25 minutes apart differ by
// as much (README.md, "Bounds"). setup_s has to hold a bound of 25 % between
// two such medians, so it is reported in seconds of the calibrated host: the
// wall time of a set-up divided by how much slower than nominal two small
// fixed kernels ran right before and right after it.

// The kernels' times on this sandbox when it is quiet (2-core Xeon 2.10 GHz).
// On another machine the factor carries a constant share that is the
// machine's; the drift still cancels.
const (
	chaseNominal = 42 * time.Millisecond
	allocNominal = 20 * time.Millisecond
)

const (
	chaseWords = 8 << 20 // 32 MB: larger than the last-level cache
	chaseSteps = 300_000
	allocNodes = 100_000
)

type hostNode struct {
	next *hostNode
	v    [6]int
}

var (
	chaseRing []uint32
	hostSink  int
)

// hostFactor runs the two kernels — a dependent random walk over 32 MB, and
// building and walking a map of small linked objects — and returns how much
// slower than nominal they ran (the geometric mean of the two shares): 1 on
// the quiet reference sandbox, more under contention. It takes about 60 ms.
func hostFactor() float64 {
	if chaseRing == nil {
		// Written, not just made: an untouched page reads as the shared
		// zero page and never misses.
		chaseRing = make([]uint32, chaseWords)
		for i := range chaseRing {
			chaseRing[i] = uint32(i) & 3
		}
	}
	t0 := time.Now()
	p := uint32(1)
	for i := 0; i < chaseSteps; i++ {
		// The next index depends on the word just loaded, so the loads
		// cannot overlap.
		p = (p*1664525 + 1013904223 + chaseRing[p]) & (chaseWords - 1)
	}
	t1 := time.Now()
	m := make(map[int]*hostNode)
	var head *hostNode
	for i := 0; i < allocNodes; i++ {
		nd := &hostNode{next: head}
		nd.v[0] = i
		head = nd
		m[i*7919%1000003] = nd
	}
	s := 0
	for k, nd := range m {
		s += k + nd.v[0]
	}
	t2 := time.Now()
	hostSink += int(p) + s
	chase := float64(t1.Sub(t0)) / float64(chaseNominal)
	alloc := float64(t2.Sub(t1)) / float64(allocNominal)
	return math.Sqrt(chase * alloc)
}
