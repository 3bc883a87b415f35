package server

import (
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
)

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

// Regions returns all known regions, sorted.
func (m *RegionMap) Regions() []string {
	out := make([]string, 0, len(m.servers))
	for r := range m.servers {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}
