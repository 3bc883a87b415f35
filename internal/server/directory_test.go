package server

import (
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
)

// TestDirectoryPlacementEventFunnel: every mutating directory entry point
// must flow through the single placementEvent funnel — the hook sees each
// write, and the resolution cache entry for the touched name is dropped
// BEFORE the hook fires, so a hook chaining its own cache off directory
// truth can immediately re-Resolve and get the new answer.
func TestDirectoryPlacementEventFunnel(t *testing.T) {
	d := NewDirectory("r0")
	user := names.Name{Region: "r0", Host: "h0", User: "alice"}
	alias := names.Name{Region: "r0", Host: "h0", User: "alice-old"}
	group := names.Name{Region: "r0", Host: "h0", User: "staff"}

	type event struct {
		kind PlacementEvent
		user names.Name
	}
	var events []event
	var inHook []graph.NodeID
	d.OnPlacementEvent(func(kind PlacementEvent, u names.Name) {
		events = append(events, event{kind, u})
		if kind == EventAuthority && u == user {
			// The funnel invalidates before notifying: resolving from
			// inside the hook must already see the new authority.
			inHook = d.Resolve(user)
		}
	})

	if err := d.SetAuthority(user, []graph.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Populate the cache, then overwrite the placement.
	if got := d.Resolve(user); len(got) != 2 || got[0] != 1 {
		t.Fatalf("Resolve = %v, want [1 2]", got)
	}
	if err := d.SetAuthority(user, []graph.NodeID{3, 4}); err != nil {
		t.Fatal(err)
	}
	if len(inHook) != 2 || inHook[0] != 3 {
		t.Fatalf("hook-time Resolve = %v, want the NEW authority [3 4]", inHook)
	}
	if got := d.Resolve(user); len(got) != 2 || got[0] != 3 {
		t.Fatalf("post-write Resolve = %v, want [3 4] (stale cache?)", got)
	}

	if err := d.SetRedirect(alias, user); err != nil {
		t.Fatal(err)
	}
	d.RemoveRedirect(alias)
	if err := d.SetGroup(group, []names.Name{user}); err != nil {
		t.Fatal(err)
	}

	want := []event{
		{EventAuthority, user},
		{EventAuthority, user},
		{EventRedirect, alias},
		{EventUnredirect, alias},
		{EventGroup, group},
	}
	if len(events) != len(want) {
		t.Fatalf("hook saw %d events %v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, events[i], want[i])
		}
	}

	// Negative cache entries are invalidated too: resolve an unknown name
	// (caches nil), then register it.
	ghost := names.Name{Region: "r0", Host: "h1", User: "bob"}
	if got := d.Resolve(ghost); got != nil {
		t.Fatalf("unknown name resolved to %v", got)
	}
	if err := d.SetAuthority(ghost, []graph.NodeID{7}); err != nil {
		t.Fatal(err)
	}
	if got := d.Resolve(ghost); len(got) != 1 || got[0] != 7 {
		t.Fatalf("negative cache entry survived registration: Resolve = %v", got)
	}
}

// TestRegionMapListsNeverEdited: Servers hands out the stored list, so the map
// may never write to one. A list taken before AddServer or RemoveServer keeps
// its contents afterwards (a relay transfer queued with it walks the servers
// it was queued with), a caller that wants its own order — Route's
// SpreadRelay rotation — works on a clone, which the map never sees, and a
// read costs nothing.
func TestRegionMapListsNeverEdited(t *testing.T) {
	m := NewRegionMap()
	m.AddServer("R1", 1)
	m.AddServer("R1", 2)
	m.AddServer("R1", 3)

	held := m.Servers("R1")
	want := slices.Clone(held)
	if &held[0] != &m.Servers("R1")[0] {
		t.Error("Servers returned a copy")
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.Servers("R1") }); n != 0 {
		t.Errorf("Servers: %v allocs, want 0", n)
	}

	m.AddServer("R1", 4)
	m.AddServer("R1", 4) // already there: no new list either
	m.RemoveServer("R1", 1)
	m.RemoveServer("R1", 9) // not there
	if !slices.Equal(held, want) {
		t.Errorf("a list handed out before reconfiguration became %v, want %v", held, want)
	}
	if got := m.Servers("R1"); !slices.Equal(got, []graph.NodeID{2, 3, 4}) {
		t.Errorf("Servers after add/remove = %v, want [2 3 4]", got)
	}

	rotated := slices.Clone(m.Servers("R1"))
	slices.Reverse(rotated)
	rotated[0] = 99
	if got := m.Servers("R1"); !slices.Equal(got, []graph.NodeID{2, 3, 4}) {
		t.Errorf("editing a clone changed the map to %v", got)
	}

	m.RemoveServer("R1", 2)
	m.RemoveServer("R1", 3)
	m.RemoveServer("R1", 4)
	if got := m.Servers("R1"); len(got) != 0 || len(m.Regions()) != 0 {
		t.Errorf("emptied region still lists %v (regions %v)", got, m.Regions())
	}
}
