package server

import (
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

func TestResolveCachesAndInvalidates(t *testing.T) {
	d := NewDirectory("R1")
	u := names.MustParse("R1.h1.u")
	if err := d.SetAuthority(u, []graph.NodeID{101, 102}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d.Instrument(reg)

	if got := d.Resolve(u); len(got) != 2 || got[0] != 101 {
		t.Fatalf("Resolve = %v", got)
	}
	if got := d.Resolve(u); len(got) != 2 {
		t.Fatalf("Resolve (cached) = %v", got)
	}
	hits, misses := d.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("CacheStats = %d hits, %d misses, want 1/1", hits, misses)
	}
	if reg.Get("rescache_hits") != 1 || reg.Get("rescache_misses") != 1 {
		t.Errorf("obs counters = %d/%d, want 1/1",
			reg.Get("rescache_hits"), reg.Get("rescache_misses"))
	}

	// Resolve hands out the stored list itself — read-only by contract (see
	// Directory.authority) and free; the copying reads are SetAuthority's
	// input and Authority, so neither of those can poison the cache.
	if a, b := d.Resolve(u), d.Resolve(u); &a[0] != &b[0] {
		t.Error("Resolve copied the stored list")
	}
	if n := testing.AllocsPerRun(100, func() { d.Resolve(u) }); n != 0 {
		t.Errorf("Resolve allocates %v per call, want 0", n)
	}
	in := []graph.NodeID{101, 102}
	if err := d.SetAuthority(u, in); err != nil {
		t.Fatal(err)
	}
	in[0] = 999
	d.Authority(u)[0] = 999
	if again := d.Resolve(u); again[0] != 101 {
		t.Error("stored list poisoned through SetAuthority's input or Authority's result")
	}

	// A reconfig write invalidates exactly that user.
	if err := d.SetAuthority(u, []graph.NodeID{102}); err != nil {
		t.Fatal(err)
	}
	if got := d.Resolve(u); len(got) != 1 || got[0] != 102 {
		t.Errorf("Resolve after SetAuthority = %v, want [102]", got)
	}

	// Removal is visible immediately too.
	if err := d.SetAuthority(u, nil); err != nil {
		t.Fatal(err)
	}
	if got := d.Resolve(u); got != nil {
		t.Errorf("Resolve after removal = %v, want nil", got)
	}
}

func TestResolveNegativeCacheInvalidatedOnRegistration(t *testing.T) {
	d := NewDirectory("R1")
	u := names.MustParse("R1.h1.newuser")
	if got := d.Resolve(u); got != nil {
		t.Fatalf("Resolve unknown = %v", got)
	}
	if got := d.Resolve(u); got != nil { // cached negative
		t.Fatalf("Resolve unknown (cached) = %v", got)
	}
	hits, _ := d.CacheStats()
	if hits != 1 {
		t.Errorf("negative entry not cached: hits = %d", hits)
	}
	// Registering the user must purge the stale negative entry — otherwise
	// mail for a newly added user would bounce as unresolvable forever.
	if err := d.SetAuthority(u, []graph.NodeID{101}); err != nil {
		t.Fatal(err)
	}
	if got := d.Resolve(u); len(got) != 1 || got[0] != 101 {
		t.Errorf("Resolve after registration = %v, want [101]", got)
	}
}

// TestDeliveryUsesResolutionCache pins that the hot path actually goes
// through the cache: repeated deliveries to the same recipient hit after the
// first resolve.
func TestDeliveryUsesResolutionCache(t *testing.T) {
	w := newWorld(t)
	for i := 0; i < 3; i++ {
		w.submit(t, h1, s1, carol, alice)
	}
	hits, misses := w.dirR1.CacheStats()
	if misses == 0 {
		t.Error("no cache misses recorded — Resolve not in the delivery path?")
	}
	if hits == 0 {
		t.Error("no cache hits across repeated deliveries to one recipient")
	}
}
