package placement

import (
	"testing"

	"github.com/largemail/largemail/internal/obs"
)

func testWorld() World {
	return World{Regions: 2, ServersPerRegion: 4, HostsPerRegion: 8, AuthorityLen: 2}
}

func TestParseName(t *testing.T) {
	for in, want := range map[string]string{
		"": NameStatic, "static": NameStatic, "jsq": NameJSQ, "rebalance": NameRebalance,
	} {
		got, err := ParseName(in)
		if err != nil || got != want {
			t.Errorf("ParseName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseName("round-robin"); err == nil {
		t.Error("ParseName accepted an unknown policy")
	}
}

func TestRoundRobinPlace(t *testing.T) {
	w := testWorld()
	p := NewRoundRobin(w)
	for gh := 0; gh < w.Regions*w.HostsPerRegion; gh++ {
		list := p.Place(User{Index: gh * 10, Host: gh})
		if len(list) != w.AuthorityLen {
			t.Fatalf("host %d: authority list %v, want %d entries", gh, list, w.AuthorityLen)
		}
		r := w.RegionOfHost(gh)
		for _, s := range list {
			if w.RegionOfSlot(s) != r {
				t.Fatalf("host %d (region %d) placed on slot %d (region %d)",
					gh, r, s, w.RegionOfSlot(s))
			}
		}
		if list[0] == list[1] {
			t.Fatalf("host %d: duplicate slots %v", gh, list)
		}
	}
	// Deterministic: same input, same answer.
	a := p.Place(User{Index: 7, Host: 3})
	b := p.Place(User{Index: 7, Host: 3})
	if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("Place not deterministic: %v vs %v", a, b)
	}
}

// TestJSQPicksLeastLoaded hand-sets qdepth gauges and samples d = all slots,
// so JSQ's choice is forced: the least-loaded server must become the primary
// and the base tail must survive behind it at AuthorityLen.
func TestJSQPicksLeastLoaded(t *testing.T) {
	w := testWorld()
	reg := obs.NewRegistry()
	for s := 0; s < w.TotalServers(); s++ {
		reg.Gauge(DefaultLabel(s) + ".qdepth").Set(int64(100 + s))
	}
	// Slot 2 is the idle one in region 0.
	reg.Gauge(DefaultLabel(2) + ".qdepth").Set(1)
	j := NewJSQ(NewRoundRobin(w), Config{World: w, Gauges: reg, D: w.ServersPerRegion})
	list := j.Place(User{Index: 0, Host: 0})
	if len(list) != w.AuthorityLen {
		t.Fatalf("authority list %v, want %d entries", list, w.AuthorityLen)
	}
	if list[0] != 2 {
		t.Fatalf("JSQ primary = slot %d, want the least-loaded slot 2 (%v)", list[0], list)
	}
	// Without gauges JSQ must degrade to the base policy.
	plain := NewJSQ(NewRoundRobin(w), Config{World: w, D: 2})
	base := NewRoundRobin(w).Place(User{Index: 0, Host: 0})
	got := plain.Place(User{Index: 0, Host: 0})
	if len(got) != len(base) || got[0] != base[0] {
		t.Fatalf("gauge-less JSQ diverged from base: %v vs %v", got, base)
	}
	if migs := j.Rebalance(obs.Snapshot{}); len(migs) != 0 {
		t.Fatalf("JSQ emitted migrations: %v", migs)
	}
}

// snapWithRho builds a snapshot whose region-0 servers carry the given ρ
// values (RhoScale fixed-point) and one placed user per 100 load units.
func snapWithRho(w World, rhos []float64) obs.Snapshot {
	g := make(map[string]int64)
	for i, rho := range rhos {
		label := DefaultLabel(w.RegionSlots(0)[i])
		g[label+".rho"] = int64(rho * RhoScale)
		g[label+".placed"] = int64(rho*100) + 10
	}
	return obs.Snapshot{Gauges: g}
}

func TestRebalancerHysteresisHoldsStill(t *testing.T) {
	w := testWorld()
	rb := NewRebalancer(NewRoundRobin(w), Config{World: w})
	// All servers inside the ±25% band around the mean: nothing moves.
	if migs := rb.Rebalance(snapWithRho(w, []float64{1.0, 1.1, 0.9, 1.05})); len(migs) != 0 {
		t.Fatalf("in-band region produced migrations: %v", migs)
	}
}

func TestRebalancerMinShedRhoFloor(t *testing.T) {
	w := testWorld()
	rb := NewRebalancer(NewRoundRobin(w), Config{World: w})
	// One server is 4× the regional mean — but at ρ=0.2 it is nowhere near
	// loaded. The absolute floor must keep the near-idle region still.
	if migs := rb.Rebalance(snapWithRho(w, []float64{0.2, 0.05, 0.05, 0.05})); len(migs) != 0 {
		t.Fatalf("near-idle region produced migrations: %v", migs)
	}
}

func TestRebalancerShedsProportionally(t *testing.T) {
	w := testWorld()
	rb := NewRebalancer(NewRoundRobin(w), Config{World: w})
	hot := w.RegionSlots(0)[0]
	migs := rb.Rebalance(snapWithRho(w, []float64{2.0, 0.2, 0.4, 0.6}))
	if len(migs) == 0 {
		t.Fatal("skewed region produced no migrations")
	}
	total := 0
	var toColdest, toWarmest int
	for _, m := range migs {
		if m.From != hot {
			t.Fatalf("migration from slot %d, only slot %d is overloaded: %+v", m.From, hot, migs)
		}
		if m.To == hot {
			t.Fatalf("migration back onto the overloaded slot: %+v", m)
		}
		if m.Count < 1 || m.Frac <= 0 || m.Frac > 1 {
			t.Fatalf("malformed migration %+v", m)
		}
		total += m.Count
		switch m.To {
		case w.RegionSlots(0)[1]:
			toColdest = m.Count
		case w.RegionSlots(0)[2]:
			toWarmest = m.Count
		}
	}
	if total > 32 {
		t.Fatalf("default budget exceeded: %d users in one tick", total)
	}
	// Proportional headroom: the coldest server (ρ=0.2) absorbs more than
	// the warmer one (ρ=0.4).
	if toColdest <= toWarmest {
		t.Fatalf("headroom split not proportional: coldest got %d, warmer got %d", toColdest, toWarmest)
	}
}

func TestRebalancerBudget(t *testing.T) {
	w := testWorld()
	rb := NewRebalancer(NewRoundRobin(w), Config{World: w, maxMigrationsPerTick: 4})
	migs := rb.Rebalance(snapWithRho(w, []float64{8.0, 0.1, 0.1, 0.1}))
	total := 0
	for _, m := range migs {
		total += m.Count
	}
	if total == 0 || total > 4 {
		t.Fatalf("budget 4 violated: %d users moved (%v)", total, migs)
	}
}

// TestRebalancerPlaceDiversion: registrations must not refill a server the
// rebalancer is shedding. With the base primary's live ρ above the shed
// threshold, Place diverts to the region's coldest server; with healthy
// gauges it is exactly the base placement.
func TestRebalancerPlaceDiversion(t *testing.T) {
	w := testWorld()
	reg := obs.NewRegistry()
	rb := NewRebalancer(NewRoundRobin(w), Config{World: w, Gauges: reg})
	base := NewRoundRobin(w).Place(User{Index: 0, Host: 0})

	// Healthy region: identical to base.
	for i, s := range w.RegionSlots(0) {
		reg.Gauge(DefaultLabel(s) + ".rho").Set(int64((0.3 + 0.01*float64(i)) * RhoScale))
	}
	if got := rb.Place(User{Index: 0, Host: 0}); got[0] != base[0] {
		t.Fatalf("healthy region diverted: %v vs base %v", got, base)
	}

	// Base primary overloaded, slot 3 idle: the registration diverts there.
	reg.Gauge(DefaultLabel(base[0]) + ".rho").Set(3 * RhoScale)
	reg.Gauge(DefaultLabel(3) + ".rho").Set(0)
	got := rb.Place(User{Index: 0, Host: 0})
	if got[0] != 3 {
		t.Fatalf("overloaded primary not diverted: %v (base %v)", got, base)
	}
	if len(got) != w.AuthorityLen {
		t.Fatalf("diverted list %v, want %d entries", got, w.AuthorityLen)
	}

	// No gauges: pure base behavior.
	plain := NewRebalancer(NewRoundRobin(w), Config{World: w})
	if got := plain.Place(User{Index: 0, Host: 0}); got[0] != base[0] {
		t.Fatalf("gauge-less rebalancer diverged from base: %v vs %v", got, base)
	}
}
