package loadgen

import (
	"fmt"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/placement"
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

// TestStaticPlacementIsTheAssignment: the static policy is the §3.1.1
// assignment and nothing else. For every host of seeded populations,
// Static.Place mapped to nodes — and the list a user first touched on that
// host is registered and polls with — equals the host's entry in the region's
// AuthorityLists, which is what the retired Policy == "" path read (kept here
// as the `want` line), at build and after each reconfiguration: a server
// wired from the spare pool, a user moved across regions, a server deleted.
func TestStaticPlacementIsTheAssignment(t *testing.T) {
	pops := []Population{
		{Users: 4000, Regions: 2, ServersPerRegion: 3},
		{Users: 900, Regions: 3, HostsPerRegion: 5, ServersPerRegion: 4, AuthorityLen: 3},
	}
	for i, pop := range pops {
		for _, policy := range []string{"", "static"} {
			drv := newSimDriver(t, SimConfig{Seed: int64(5 + i), Pop: pop, Policy: policy, SpareServersPerRegion: 1})
			p := drv.Population()
			fresh := 0 // every check touches users nobody has touched yet
			check := func(when string) {
				t.Helper()
				for gh := 0; gh < p.TotalHosts(); gh++ {
					assignment, _ := drv.fab.Assignment(p.RegionName(gh / p.HostsPerRegion))
					want := assignment.AuthorityLists(p.AuthorityLen)[hostID(gh)]
					var got []graph.NodeID
					for _, s := range drv.static.Place(placement.User{Index: gh, Host: gh}) {
						got = append(got, drv.slotNode(s))
					}
					if !slices.Equal(got, want) {
						t.Fatalf("pop %d, policy %q, %s: host %d places on %v, the assignment lists %v", i, policy, when, gh, got, want)
					}
					u := gh + (8+fresh)*p.TotalHosts()
					a, err := drv.ensure(u)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(a.Authority(), want) || !slices.Equal(drv.dirs[gh/p.HostsPerRegion].Resolve(a.User()), want) {
						t.Fatalf("pop %d, policy %q, %s: user %d of host %d got %v, the assignment lists %v", i, policy, when, u, gh, a.Authority(), want)
					}
				}
				fresh++
			}
			check("at build")
			added, err := drv.AddServer(0)
			if err != nil {
				t.Fatal(err)
			}
			check("after AddServer")
			if _, err := drv.MigrateUser(2, p.HostsPerRegion); err != nil {
				t.Fatal(err)
			}
			check("after MigrateUser")
			if err := drv.RemoveServer(drv.ServerLoads()[0].Name); err != nil {
				t.Fatal(err)
			}
			check("after RemoveServer")
			if err := drv.RemoveServer(added); err != nil {
				t.Fatal(err)
			}
			check("after removing the added server")
			if len(drv.rehomed) != 0 {
				t.Errorf("pop %d, policy %q: the static policy rehomed %d users", i, policy, len(drv.rehomed))
			}
		}
	}
}

// TestRoundRobinIsTheLiveFormula: LiveDriver used to compute a user's list
// itself when no policy was configured — AuthorityLen servers of the user's
// region, starting at the slot the user's host maps to. It now asks
// placement.RoundRobin like every other policy; over a grid of populations
// the two agree on every user.
func TestRoundRobinIsTheLiveFormula(t *testing.T) {
	for _, regions := range []int{1, 2, 3} {
		for _, spr := range []int{1, 2, 4, 5} {
			for _, hpr := range []int{0, 3, 8} {
				for _, alen := range []int{1, 2, 3, 9} {
					pop := Population{Users: 500, Regions: regions, ServersPerRegion: spr,
						HostsPerRegion: hpr, AuthorityLen: alen}.withDefaults()
					rr := placement.NewRoundRobin(pop.world())
					for u := 0; u < pop.Users; u++ {
						var want []int // the deleted LiveDriver.authority, in slots
						start := pop.HostOf(u) % pop.ServersPerRegion
						for i := 0; i < pop.AuthorityLen; i++ {
							want = append(want, pop.RegionOf(u)*pop.ServersPerRegion+(start+i)%pop.ServersPerRegion)
						}
						if got := rr.Place(placement.User{Index: u, Host: pop.HostOf(u)}); !slices.Equal(got, want) {
							t.Fatalf("%+v: user %d placed on %v, the live formula says %v", pop, u, got, want)
						}
					}
				}
			}
		}
	}
}

// TestOneWorld: core.NewSyntax (every user up front, by name) and NewSimDriver
// (users on first touch, by index) are two user tables over one core.Fabric.
// Built over the same Population.topology they give every host the same
// authority list, and after the same AddServer / MigrateUser / RemoveServer
// sequence every user has the same directory entry and every moved user the
// same redirect. (The two name a host differently — its label, "H3", against
// the population's token, "h3" — which is all the mapping below translates.)
func TestOneWorld(t *testing.T) {
	pop := Population{Users: 120, Regions: 2, ServersPerRegion: 3, AuthorityLen: 2}.withDefaults()
	const spares = 1
	topo, _ := pop.topology(spares)
	tokens := make(map[graph.NodeID][]string)
	for u := 0; u < pop.Users; u++ {
		tokens[hostID(pop.HostOf(u))] = append(tokens[hostID(pop.HostOf(u))], pop.Name(u).User)
	}
	eager, err := core.NewSyntax(core.SyntaxConfig{
		Topology: topo, UsersPerHost: tokens, AuthorityLen: pop.AuthorityLen, MaxLoad: pop.MaxLoad(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lazy := newSimDriver(t, SimConfig{Seed: 7, Pop: pop, SpareServersPerRegion: spares})
	for u := 0; u < pop.Users; u++ {
		if _, err := lazy.ensure(u); err != nil {
			t.Fatal(err)
		}
	}
	byLabel := func(n names.Name) names.Name { // the lazy table's name → the eager table's
		n.Host = "H" + n.Host[1:]
		return n
	}
	same := func(when string) {
		t.Helper()
		for h, list := range lazy.lists {
			if !slices.Equal(eager.Lists()[h], list) {
				t.Fatalf("%s: host %d: eager %v, lazy %v", when, h, eager.Lists()[h], list)
			}
		}
		if !slices.Equal(eager.Servers(), lazy.fab.Servers()) {
			t.Fatalf("%s: servers in service: eager %v, lazy %v", when, eager.Servers(), lazy.fab.Servers())
		}
		for u := 0; u < pop.Users; u++ {
			for _, n := range []names.Name{pop.Name(u), lazy.UserName(u)} { // the old name too, once moved
				ld, _ := lazy.fab.Directory(n.Region)
				ed, _ := eager.Directory(n.Region)
				if a, b := ed.Resolve(byLabel(n)), ld.Resolve(n); !slices.Equal(a, b) {
					t.Fatalf("%s: %v: eager directory %v, lazy %v", when, n, a, b)
				}
				to, moved := ld.Redirect(n)
				if eto, emoved := ed.Redirect(byLabel(n)); moved != emoved || (moved && eto != byLabel(to)) {
					t.Fatalf("%s: %v: eager redirect %v %v, lazy %v %v", when, n, eto, emoved, to, moved)
				}
			}
		}
	}
	same("at build")

	label, err := lazy.AddServer(0)
	if err != nil {
		t.Fatal(err)
	}
	added := lazy.nodes[label]
	if err := eager.AddServer(added, pop.RegionName(0), pop.MaxLoad()); err != nil {
		t.Fatal(err)
	}
	same("after AddServer")

	for _, u := range []int{2, 7} { // region 0 → region 1, region 1 → region 0
		to := (pop.HostOf(u) + pop.HostsPerRegion) % pop.TotalHosts()
		if _, err := lazy.MigrateUser(u, to); err != nil {
			t.Fatal(err)
		}
		if _, err := eager.MigrateUser(byLabel(pop.Name(u)), hostID(to)); err != nil {
			t.Fatal(err)
		}
	}
	same("after MigrateUser")

	for _, id := range []graph.NodeID{serverID(0), added} {
		if err := lazy.RemoveServer(nodeLabel(id)); err != nil {
			t.Fatal(err)
		}
		if err := eager.RemoveServer(id); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("after RemoveServer(%s)", nodeLabel(id)))
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
// Every copy is routed on the list the directory holds when it is resolved,
// while two writers move users; the auditors are the oracle.
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
