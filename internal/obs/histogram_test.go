package obs

import (
	"math"
	"testing"
)

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets
	if len(b) != 30 {
		t.Fatalf("len = %d, want 30", len(b))
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 5 || b[3] != 10 {
		t.Errorf("ladder start = %v", b[:4])
	}
	if b[29] != 5e9 {
		t.Errorf("ladder end = %v, want 5e9", b[29])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for _, v := range []float64{5, 10, 15, 25, 99} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// ≤10 → bucket 0 (5, 10); ≤20 → bucket 1 (15); ≤30 → bucket 2 (25);
	// overflow → bucket 3 (99).
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("counts[%d] = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 154 || s.Min != 5 || s.Max != 99 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestQuantileConstant: every sample identical — min/max clamping must make
// every quantile exact regardless of bucket width.
func TestQuantileConstant(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(42)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
}

// TestQuantileUniform: 1..1000 uniformly against fine linear buckets. The
// interpolated estimate must land within one bucket width of the true
// quantile — the histogram's documented accuracy contract.
func TestQuantileUniform(t *testing.T) {
	const width = 10.0
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = width * float64(i+1)
	}
	h := NewHistogram(bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.90, 900}, {0.95, 950}, {0.99, 990},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > width {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, width)
		}
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 1000 {
		t.Errorf("extremes: q0=%v q1=%v", s.Quantile(0), s.Quantile(1))
	}
}

// TestQuantileBimodal: two tight clusters; p50 must stay in the low cluster
// and p95 in the high one — interpolation must not smear across empty
// buckets.
func TestQuantileBimodal(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket (2,5]
	}
	for i := 0; i < 10; i++ {
		h.Observe(4000) // bucket (2000,5000]
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 2 || p50 > 5 {
		t.Errorf("p50 = %v, want within (2,5]", p50)
	}
	if p95 := s.Quantile(0.95); p95 < 2000 || p95 > 4000 {
		t.Errorf("p95 = %v, want within (2000,4000]", p95)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	h := NewHistogram(nil)
	// Skewed distribution: heavy left tail with a few large outliers.
	for i := 1; i <= 500; i++ {
		h.Observe(float64(i % 37))
	}
	h.Observe(1e6)
	h.Observe(2e6)
	s := h.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotonic: q=%v gives %v < %v", q, v, prev)
		}
		if v < s.Min || v > s.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v,%v]", q, v, s.Min, s.Max)
		}
		prev = v
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(5)
	h.Observe(100)
	h.Observe(200)
	s := h.Snapshot()
	// The overflow bucket interpolates over [last bound, Max].
	if got := s.Quantile(0.99); got <= 10 || got > 200 {
		t.Errorf("p99 = %v, want within (10, 200]", got)
	}
	if got := s.Quantile(1); got != 200 {
		t.Errorf("p100 = %v, want Max=200", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	s := NewHistogram(nil).Snapshot()
	if s.Quantile(0.5) != 0 || s.Count != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestSnapshotPrecomputedQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Errorf("precomputed quantiles disagree with Quantile(): %+v", s)
	}
}
