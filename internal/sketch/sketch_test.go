package sketch

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting()
	terms := []string{"budget", "offsite", "seminar", "deadline", "picnic"}
	for _, tm := range terms {
		c.Add(tm)
		c.Add(tm) // two references
	}
	for _, tm := range terms {
		if !c.MayContain(tm) {
			t.Fatalf("term %q lost after Add", tm)
		}
	}
	// Dropping one of two references must keep the term visible.
	for _, tm := range terms {
		c.Remove(tm)
		if !c.MayContain(tm) {
			t.Fatalf("term %q lost with one reference left", tm)
		}
	}
	// Dropping the last reference must clear it (counting filters remove
	// exactly as long as no slot saturated).
	for _, tm := range terms {
		c.Remove(tm)
		if c.MayContain(tm) {
			t.Fatalf("term %q still present after all references removed", tm)
		}
	}
	if got := c.Snapshot().Bits(); got != 0 {
		t.Fatalf("empty counting filter snapshots %d bits, want 0", got)
	}
}

func TestCountingNoFalseNegativesUnderChurn(t *testing.T) {
	// Property: after any interleaving of adds and removes, every term with
	// a positive live refcount answers MayContain true.
	rng := rand.New(rand.NewSource(10))
	c := NewCounting()
	live := map[string]int{}
	for i := 0; i < 20000; i++ {
		tm := fmt.Sprintf("t%d", rng.Intn(300))
		if rng.Intn(3) == 0 && live[tm] > 0 {
			c.Remove(tm)
			live[tm]--
		} else {
			c.Add(tm)
			live[tm]++
		}
	}
	snap := c.Snapshot()
	for tm, n := range live {
		if n > 0 {
			if !c.MayContain(tm) {
				t.Fatalf("false negative on live term %q (refs=%d)", tm, n)
			}
			if !snap.MayContain(tm) {
				t.Fatalf("snapshot false negative on live term %q", tm)
			}
		}
	}
}

func TestFilterOr(t *testing.T) {
	a, b := NewFilter(), NewFilter()
	a.Add("alpha")
	b.Add("beta")
	union := a.Clone()
	union.Or(b)
	for _, tm := range []string{"alpha", "beta"} {
		if !union.MayContain(tm) {
			t.Fatalf("union lost %q", tm)
		}
	}
	if !a.MayContain("alpha") || a.MayContain("beta") {
		t.Fatal("Clone did not isolate the source filter")
	}
	union.Or(nil) // nil is a no-op, not a panic
}

func TestFalsePositiveRateBound(t *testing.T) {
	// Measured FP rate at n=400 live terms must stay within 2× the
	// analytical estimate (sampling noise headroom), and the estimate
	// itself must be small enough that pruning is worth doing.
	const n = 400
	c := NewCounting()
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("present%d", i))
	}
	est := FalsePositiveRate(n)
	if est > 0.05 {
		t.Fatalf("analytical FP rate %.4f at n=%d too high for useful pruning", est, n)
	}
	const probes = 20000
	fp := 0
	for i := 0; i < probes; i++ {
		if c.MayContain(fmt.Sprintf("absent%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 2*est+0.005 {
		t.Fatalf("measured FP rate %.4f exceeds bound (analytical %.4f)", rate, est)
	}
	t.Logf("n=%d: measured FP %.4f, analytical %.4f", n, rate, est)
}

func TestNormalizeTerm(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"Budget", "budget", true},
		{"budget", "budget", true},
		{"X9", "x9", true},
		{"a", "", false},                      // too short
		{"two words", "", false},              // not a single token
		{"hyphen-ated", "", false},            // punctuation
		{"", "", false},                       // empty
		{string(make([]byte, 40)), "", false}, // too long
	}
	for _, c := range cases {
		got, ok := NormalizeTerm(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("NormalizeTerm(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}
