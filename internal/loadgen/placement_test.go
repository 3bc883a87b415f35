package loadgen

import (
	"fmt"
	"testing"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/sim"
)

// hotspotConfig is the shared shape the placement-policy tests race on: a
// population big enough that the §3.1.1 optimizer spreads users evenly, a
// workload profile it cannot see at assignment time, and a service rate low
// enough that the hot server saturates.
func hotspotSimConfig(policy string, batch int) SimConfig {
	return SimConfig{
		Seed:      3,
		BatchSize: batch,
		Pop: Population{
			Users:            20000,
			Regions:          2,
			ServersPerRegion: 4,
		},
		Policy:       policy,
		ServiceRate:  4,
		RetryTimeout: 200 * sim.Unit,
	}
}

func runHotspot(t *testing.T, policy string, batch int) (*SimDriver, Report) {
	t.Helper()
	drv := newSimDriver(t, hotspotSimConfig(policy, batch))
	eng := New(drv, Config{
		Seed: 3, Messages: 1500, Sessions: 128, Ticks: 150,
		Profile: Profile{Kind: "hotspot"},
	})
	rep := eng.Run()
	requireClean(t, rep)
	return drv, rep
}

// TestStaticPolicyBitCompat: routing the §3.1.1 optimizer through the
// placement.Policy seam must not change a single placement decision — the
// same population assigns the same load to the same servers and the run
// deposits the same mail on each of them as the legacy hard-wired path.
func TestStaticPolicyBitCompat(t *testing.T) {
	run := func(policy string) ([]ServerLoad, *SimDriver) {
		drv := newSimDriver(t, SimConfig{
			Seed: 5,
			Pop:  Population{Users: 4000, Regions: 2, ServersPerRegion: 3},
			// policy "" is the legacy path; "static" goes through the seam.
			Policy: policy,
		})
		eng := New(drv, Config{Seed: 5, Messages: 600, Sessions: 64, Ticks: 100})
		rep := eng.Run()
		requireClean(t, rep)
		return drv.ServerLoads(), drv
	}
	legacy, legacyDrv := run("")
	seamed, seamedDrv := run("static")
	if len(legacy) != len(seamed) {
		t.Fatalf("server counts differ: %d vs %d", len(legacy), len(seamed))
	}
	for i := range legacy {
		l, s := legacy[i], seamed[i]
		if l.Name != s.Name || l.Load != s.Load || l.Deposits != s.Deposits {
			t.Errorf("server %s: legacy {load %d, deposits %d} vs static-policy {load %d, deposits %d}",
				l.Name, l.Load, l.Deposits, s.Load, s.Deposits)
		}
	}
	// Spot-check that individual users resolve to identical names too.
	for _, u := range []int{0, 1, 7, 1234, 3999} {
		if a, b := legacyDrv.UserName(u), seamedDrv.UserName(u); a != b {
			t.Errorf("user %d: legacy name %v vs static-policy name %v", u, a, b)
		}
	}
}

// TestJSQSpreadsHotspot: under the hot-spot profile the static optimum
// funnels the skew onto the hot hosts' assigned servers; JSQ(2)'s submit-time
// choice must spread those deposits and cut the peak server's share.
func TestJSQSpreadsHotspot(t *testing.T) {
	peakShare := func(drv *SimDriver) float64 {
		var peak, total int64
		for _, sl := range drv.ServerLoads() {
			total += sl.Deposits
			if sl.Deposits > peak {
				peak = sl.Deposits
			}
		}
		if total == 0 {
			t.Fatal("no deposits observed")
		}
		return float64(peak) / float64(total)
	}
	staticDrv, _ := runHotspot(t, "static", 0)
	jsqDrv, _ := runHotspot(t, "jsq", 0)
	sp, jp := peakShare(staticDrv), peakShare(jsqDrv)
	if jp >= sp {
		t.Fatalf("JSQ peak deposit share %.3f did not beat static %.3f", jp, sp)
	}
	if mt := jsqDrv.Snapshot().Counters["migrations_total"]; mt != 0 {
		t.Fatalf("JSQ migrated %d users; it must act only at submit time", mt)
	}
}

// relayBatchSizes is the second input of the rebalance tests: the classic
// single-transfer relay and the batched one. A deposit the policy has moved
// away must re-route from either envelope.
var relayBatchSizes = []int{0, 16}

// TestRebalancerMigratesUnderHotspot: the continuous policy must actually
// move users off the saturated server (bounded per tick), report the drain
// cost, and keep every auditor clean while doing so.
func TestRebalancerMigratesUnderHotspot(t *testing.T) {
	for _, batch := range relayBatchSizes {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			drv, _ := runHotspot(t, "rebalance", batch)
			snap := drv.Snapshot()
			if snap.Counters["migrations_total"] == 0 {
				t.Fatal("rebalancer never migrated anyone under a saturated hot spot")
			}
			if len(drv.rehomed) == 0 {
				t.Fatal("migrations_total counted but no user is tracked as rehomed")
			}
			if _, ok := snap.Counters["migration_cost"]; !ok {
				t.Error("migration_cost counter missing from the snapshot")
			}
			// The peak ρ observed anywhere must improve on the static run's: the
			// whole point of shedding the hot server.
			peakRho := func(d *SimDriver) int64 {
				var peak int64
				for g, v := range d.Snapshot().Gauges {
					if len(g) > 9 && g[len(g)-9:] == ".rho_peak" && v > peak {
						peak = v
					}
				}
				return peak
			}
			staticDrv, _ := runHotspot(t, "static", batch)
			if rp, sp := peakRho(drv), peakRho(staticDrv); rp >= sp {
				t.Errorf("rebalancer peak ρ %d did not improve on static %d", rp, sp)
			}
		})
	}
}

// TestReconfigUnderRebalance: §3.1.3 fleet reconfiguration (server addition
// and §3.1.4 manual migration) racing the online rebalancer's own migrations.
// The directory's placement-event funnel is what keeps every resolver cache
// coherent while two writers move users; the auditors are the oracle.
func TestReconfigUnderRebalance(t *testing.T) {
	for _, batch := range relayBatchSizes {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			drv := newSimDriver(t, SimConfig{
				Seed: 9,
				Pop: Population{
					Users:            10000,
					Regions:          2,
					ServersPerRegion: 4,
				},
				BatchSize:             batch,
				Policy:                "rebalance",
				ServiceRate:           4,
				RetryTimeout:          200 * sim.Unit,
				SpareServersPerRegion: 1,
			})
			pop := drv.Population()
			victim := 4 // a region-0 user manually migrated mid-run
			if pop.RegionOf(victim) != 0 {
				t.Fatalf("test setup: user %d not in region 0", victim)
			}
			eng := New(drv, Config{
				Seed: 9, Messages: 1200, Sessions: 128, Ticks: 150,
				Profile: Profile{Kind: "hotspot"},
			})
			var added string
			eng.OnTick = func(tick int) {
				switch tick {
				case 40:
					label, err := drv.AddServer(0)
					if err != nil {
						t.Fatalf("tick %d AddServer: %v", tick, err)
					}
					added = label
				case 80:
					drained, err := drv.MigrateUser(victim, pop.HostsPerRegion)
					if err != nil {
						t.Fatalf("tick %d MigrateUser: %v", tick, err)
					}
					eng.CreditRetrieved(victim, drained)
				}
			}
			rep := eng.Run()
			requireClean(t, rep)
			if added == "" {
				t.Fatal("AddServer never fired")
			}
			if drv.Snapshot().Counters["migrations_total"] == 0 {
				t.Fatal("rebalancer idle for the whole reconfig run")
			}
			if got := drv.UserName(victim); got.Region != pop.RegionName(1) {
				t.Errorf("manually migrated user resolves to %v, want region %s", got, pop.RegionName(1))
			}
		})
	}
}

// TestMigrationRacesKillRestart: the chaos satellite — durable stores, a
// kill-restart fault schedule, AND the rebalancer migrating users through
// the same windows. A migration drain racing a process death must never
// double-deliver (the drain dedup consults the agent's seen-set) nor lose a
// committed copy (WAL replay + the pending-transfer ledger re-drive).
func TestMigrationRacesKillRestart(t *testing.T) {
	drv := newSimDriver(t, SimConfig{
		Seed: 13,
		Pop: Population{
			Users:            10000,
			Regions:          2,
			ServersPerRegion: 4,
		},
		Policy:       "rebalance",
		ServiceRate:  4,
		RetryTimeout: 200 * sim.Unit,
		DataDir:      t.TempDir(),
	})
	defer drv.Close()
	spec := drv.FaultSurface()
	if len(spec.KillTargets) == 0 {
		t.Fatal("durable sim driver offered no KillTargets")
	}
	spec.Seed = 13
	spec.Ticks = 150
	spec.KillRestarts = 3
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := New(drv, Config{
		Seed: 13, Messages: 1200, Sessions: 128, Ticks: 150,
		Profile:  Profile{Kind: "hotspot"},
		Schedule: &sched,
	}).Run()
	if !rep.Ok {
		t.Fatalf("auditors flagged violations with migrations racing kill-restart: %v\nexamples: %v",
			rep.Violations, rep.Examples)
	}
	if drv.Snapshot().Counters["migrations_total"] == 0 {
		t.Fatal("no migrations fired; the race this test exists for never happened")
	}
}
