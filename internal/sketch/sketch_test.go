package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// Snapshot renders the filter's occupancy as a filter of its own, slot by
// slot: the path stores aggregated through before Counting.OrInto, kept as
// the reference OrInto is held to.
func (c *Counting) Snapshot() *Filter {
	f := NewFilter()
	for at, n := range c.counts {
		if n > 0 {
			f.words[at>>6] |= 1 << (uint(at) & 63)
		}
	}
	return f
}

// TestOrIntoMatchesSnapshots folds several counting filters, churned by
// seeded adds and removes, into one filter through OrInto and through an Or
// of their snapshots: the two must agree bit for bit, and OrInto must make
// no allocation.
func TestOrIntoMatchesSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cs := make([]*Counting, 5)
	for i := range cs {
		cs[i] = NewCounting()
		live := map[string]int{}
		for j := 0; j < 400*(i+1); j++ {
			tm := fmt.Sprintf("t%d", rng.Intn(200))
			if rng.Intn(3) == 0 && live[tm] > 0 {
				cs[i].Remove(tm)
				live[tm]--
			} else {
				cs[i].Add(tm)
				live[tm]++
			}
		}
	}
	want, got := NewFilter(), NewFilter()
	for _, c := range cs {
		want.Or(c.Snapshot())
		c.OrInto(got)
	}
	for i := range want.words {
		if got.words[i] != want.words[i] {
			t.Fatalf("word %d: OrInto %#x, snapshots %#x", i, got.words[i], want.words[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() { cs[0].OrInto(got) }); n != 0 {
		t.Errorf("OrInto: %v allocs, want 0", n)
	}
}

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting()
	terms := []string{"budget", "offsite", "seminar", "deadline", "picnic"}
	for _, tm := range terms {
		c.Add(tm)
		c.Add(tm) // two references
	}
	for _, tm := range terms {
		if !c.Snapshot().MayContain(tm) {
			t.Fatalf("term %q lost after Add", tm)
		}
	}
	// Dropping one of two references must keep the term visible.
	for _, tm := range terms {
		c.Remove(tm)
		if !c.Snapshot().MayContain(tm) {
			t.Fatalf("term %q lost with one reference left", tm)
		}
	}
	// Dropping the last reference must clear it (counting filters remove
	// exactly as long as no slot saturated).
	for _, tm := range terms {
		c.Remove(tm)
		if c.Snapshot().MayContain(tm) {
			t.Fatalf("term %q still present after all references removed", tm)
		}
	}
	if got := c.Snapshot().Bits(); got != 0 {
		t.Fatalf("empty counting filter snapshots %d bits, want 0", got)
	}
}

func TestCountingNoFalseNegativesUnderChurn(t *testing.T) {
	// Property: after any interleaving of adds and removes, every term with
	// a positive live refcount is in the snapshot.
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
		if n > 0 && !snap.MayContain(tm) {
			t.Fatalf("false negative on live term %q (refs=%d)", tm, n)
		}
	}
}

func TestFilterOr(t *testing.T) {
	a, b := NewFilter(), NewFilter()
	a.Add("alpha")
	b.Add("beta")
	union := NewFilter()
	union.Or(a)
	union.Or(b)
	for _, tm := range []string{"alpha", "beta"} {
		if !union.MayContain(tm) {
			t.Fatalf("union lost %q", tm)
		}
	}
	if !a.MayContain("alpha") || a.MayContain("beta") {
		t.Fatal("Or changed the filter it folded in")
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
	snap := c.Snapshot()
	est := FalsePositiveRate(n)
	if est > 0.05 {
		t.Fatalf("analytical FP rate %.4f at n=%d too high for useful pruning", est, n)
	}
	const probes = 20000
	fp := 0
	for i := 0; i < probes; i++ {
		if snap.MayContain(fmt.Sprintf("absent%d", i)) {
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

// FalsePositiveRate is the classical Bloom estimate (1 − e^(−kn/m))^k for n
// distinct terms under the package geometry: TestFalsePositiveRateBound
// checks the measured rate against it with headroom.
func FalsePositiveRate(n int) float64 {
	k := float64(DefaultHashes)
	m := float64(DefaultBits)
	return math.Pow(1-math.Exp(-k*float64(n)/m), k)
}

// Bits returns the number of set bits — the load factor's numerator.
func (f *Filter) Bits() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestFilterReset(t *testing.T) {
	f := NewFilter()
	f.Add("alpha")
	f.Reset()
	if !reflect.DeepEqual(f, NewFilter()) {
		t.Fatal("Reset left bits set")
	}
	f.Add("beta")
	want := NewFilter()
	want.Add("beta")
	if !reflect.DeepEqual(f, want) {
		t.Fatal("a reset filter does not fill like a new one")
	}
}
