package obs

import (
	"math"
	"sync"
)

// DefaultLatencyBuckets is a 1-2-5 exponential ladder from 1 to 5·10⁹. It
// spans both clock domains the repository uses — sim microticks (a paper
// time unit is 10³ microticks) and wall-clock nanoseconds (10³ ns = 1µs up
// to ~5 s) — so one default serves both transports.
var DefaultLatencyBuckets = ladder125(1, 10)

// ladder125 builds the 1-2-5 ladder starting at start and spanning the
// given number of decades.
func ladder125(start float64, decades int) []float64 {
	out := make([]float64, 0, 3*decades)
	v := start
	for i := 0; i < decades; i++ {
		out = append(out, v, 2*v, 5*v)
		v *= 10
	}
	return out
}

// Histogram is a fixed-bucket histogram of float64 observations (typically
// latencies in clock units). Safe for concurrent use. Create with
// NewHistogram or Registry.Histogram.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1, last is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram with the given sorted bucket upper
// bounds; nil takes DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value. Values land in the first bucket whose upper
// bound is ≥ v; values beyond every bound land in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	// Binary search outside the lock; bounds are immutable.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.mu.Lock()
	h.counts[lo]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Snapshot returns a consistent copy with derived quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
	}
	if h.count > 0 {
		s.Min = h.min
		s.Max = h.max
		s.Mean = h.sum / float64(h.count)
	}
	h.mu.Unlock()
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// HistogramSnapshot is an immutable view of a histogram with its headline
// quantiles precomputed. Bounds is shared (immutable); Counts is a copy.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank, clamped to the observed
// [Min, Max]. With no observations it returns 0. The estimate is exact to
// within one bucket width — the resolution the fixed-bucket design trades
// for O(1) memory per instrument.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if q == 0 {
		return s.Min
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		lo := s.Min
		if i > 0 && s.Bounds[i-1] > lo {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		if hi <= lo {
			return clamp(lo, s.Min, s.Max)
		}
		frac := (rank - cum) / float64(c)
		return clamp(lo+(hi-lo)*frac, s.Min, s.Max)
	}
	return s.Max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
