package loadgen

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/faults"
)

func newAttrScenario(t *testing.T, cfg AttrConfig) *AttrScenario {
	t.Helper()
	s, err := NewAttrScenario(cfg)
	if err != nil {
		t.Fatalf("NewAttrScenario: %v", err)
	}
	return s
}

func requireAttrClean(t *testing.T, rep AttrReport) {
	t.Helper()
	if !rep.Ok {
		t.Fatalf("auditor violations: %v\nexamples: %v", rep.Violations, rep.Examples)
	}
}

func TestAttrScenarioFailureFree(t *testing.T) {
	s := newAttrScenario(t, AttrConfig{
		Seed: 1,
		Pop:  Population{Users: 400, Regions: 2, ServersPerRegion: 3},
	})
	rep := s.Run()
	requireAttrClean(t, rep)
	if rep.Queries == 0 || rep.Deliveries == 0 {
		t.Fatalf("no distribution activity: %+v", rep)
	}
	if rep.ContentQueries < 2 {
		t.Fatalf("content searches = %d, want >= 2 (quiet-world epilogue)", rep.ContentQueries)
	}
	if rep.Partial != 0 {
		t.Fatalf("failure-free run flagged %d partial summaries", rep.Partial)
	}
	snap := s.Snapshot()
	if snap.Counters["bcast_deposits"] == 0 {
		t.Fatalf("no deposits: %v", snap.Counters)
	}
	if h, ok := snap.Histograms["lat_broadcast"]; !ok || h.Count == 0 {
		t.Fatal("lat_broadcast histogram missing or empty")
	}
	if h, ok := snap.Histograms["lat_convergecast"]; !ok || h.Count == 0 {
		t.Fatal("lat_convergecast histogram missing or empty")
	}
}

func TestAttrScenarioDeterminism(t *testing.T) {
	run := func() AttrReport {
		s := newAttrScenario(t, AttrConfig{
			Seed: 5,
			Pop:  Population{Users: 300, Regions: 2, ServersPerRegion: 3},
		})
		return s.Run()
	}
	a, b := run(), run()
	if a.Queries != b.Queries || a.ContentQueries != b.ContentQueries ||
		a.Deliveries != b.Deliveries || a.Partial != b.Partial ||
		a.Skipped != b.Skipped || a.Ticks != b.Ticks {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	requireAttrClean(t, a)
}

func TestAttrScenarioWithFaults(t *testing.T) {
	s := newAttrScenario(t, AttrConfig{
		Seed:    3,
		Pop:     Population{Users: 400, Regions: 3, ServersPerRegion: 3},
		Queries: 24,
	})
	spec := s.FaultSurface()
	spec.Seed = 3
	spec.Ticks = 60
	spec.Crashes = 4
	spec.Latencies = 3
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("empty fault schedule")
	}
	s.SetSchedule(&sched)
	rep := s.Run()
	// No lost deliveries, no silently merged partials, bounded completion —
	// even with servers crashing under the convergecast.
	requireAttrClean(t, rep)
	if rep.Queries == 0 {
		t.Fatalf("no queries completed: %+v", rep)
	}
	// The schedule's crashes land under in-flight convergecasts, so partial
	// summaries MUST be flagged (E6's positive direction) — a zero here
	// means dead subtrees were silently merged or never hit.
	if rep.Partial == 0 {
		t.Fatalf("no partial summaries under a crash schedule: %+v", rep)
	}
}

// TestAttrScenarioAllocBudget is the §3.3 workload's allocation budget per
// deposited copy, at 20 000 users on 8 servers. What a copy still costs is a
// share of its mailbox's chunk, the one-object seen-set spill of a mailbox's
// fourth bulletin, a second message slot and the term index's holder insert,
// beside the evaluator's one []UserMatch per node: 0.24 measured (0.25 under
// -race). At 2.05 a copy also paid a first-touch record of three objects per
// recipient (a share of its interest group's chunk now), a two-object spill
// and the audit's map-keyed books; at 2.59 the term search sorted names; at
// 3.78 a copy also grew every term's posting map once and took a fresh
// Stored slot; at 5.99 before that, a boxed UserMatch per copy, a re-copy of
// every item at every level of the tree and six objects per first-touched
// user instead of three.
func TestAttrScenarioAllocBudget(t *testing.T) {
	s := newAttrScenario(t, AttrConfig{
		Seed: 1, Queries: 40,
		Pop: Population{Users: 20000, Regions: 2, HostsPerRegion: 8, ServersPerRegion: 4, AuthorityLen: 2},
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := s.Run()
	runtime.ReadMemStats(&after)
	requireAttrClean(t, rep)
	if rep.Deliveries < 20000 {
		t.Fatalf("only %d copies deposited", rep.Deliveries)
	}
	perCopy := float64(after.Mallocs-before.Mallocs) / float64(rep.Deliveries)
	t.Logf("%d copies, %.2f allocations per copy", rep.Deliveries, perCopy)
	budget := 0.3
	if raceDetector {
		budget = 0.35 // 0.25 measured: a quarter of the released slots are dropped
	}
	if perCopy > budget {
		t.Errorf("%.2f allocations per deposited copy, budget %.2f", perCopy, budget)
	}
}

// TestResidentsMatchDerivation touches every user of a population in a
// seeded order and holds each resident to the per-user derivation it
// replaced: the population's name and the interest, city and name
// attributes. The larger population has two full chunks per interest group
// and a partial third, so chunk edges are crossed; the 2 000-user one has one
// partial chunk per group. Touching one user builds its group's chunk alone.
func TestResidentsMatchDerivation(t *testing.T) {
	for _, users := range []int{2000, 2*attrGroups*residentChunk + 37} {
		s := newAttrScenario(t, AttrConfig{Seed: 1, Pop: Population{Users: users, Regions: 2, ServersPerRegion: 4}})
		s.resident(3*attrGroups + 5)
		built := 0
		for g, chunks := range s.residents {
			for _, chunk := range chunks {
				if chunk != nil {
					built++
					if g != 5 {
						t.Fatalf("%d users: touching one user of group 5 built a chunk of group %d", users, g)
					}
				}
			}
		}
		if built != 1 {
			t.Fatalf("%d users: touching one user built %d chunks", users, built)
		}
		for _, u := range rand.New(rand.NewSource(int64(users))).Perm(users) {
			want := attr.Profile{User: s.pop.Name(u), Attrs: []attr.Attribute{
				{Type: attr.TypeInterest, Value: fmt.Sprintf("g%d", u%attrGroups), Visibility: attr.Public},
				{Type: attr.TypeCity, Value: attrCities[u%len(attrCities)], Visibility: attr.Public},
				{Type: attr.TypeName, Value: fmt.Sprintf("user%d", u), Visibility: attr.Public},
			}}
			got := s.resident(u)
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("%d users: resident(%d) = %+v, want %+v", users, u, *got, want)
			}
			if s.resident(u) != got {
				t.Fatalf("%d users: resident(%d) was derived twice", users, u)
			}
		}
	}
}
