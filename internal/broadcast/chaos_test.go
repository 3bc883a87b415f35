// Package broadcast_test holds the chaos regression externally: the faults
// package transitively imports broadcast (via core), so an in-package test
// would form an import cycle.
package broadcast_test

import (
	"fmt"
	"testing"

	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// chaosTree mirrors the in-package testTree harness: a 6-node line tree
// 1-2-3-4-5-6 where killing an interior node severs a whole subtree.
func chaosTree(t *testing.T, timeout sim.Time) (*sim.Scheduler, *netsim.Network, *broadcast.TreeOf[string]) {
	t.Helper()
	g := graph.New()
	regions := []string{"A", "A", "B", "B", "C", "C"}
	for i := 1; i <= 6; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: regions[i-1]})
	}
	var tree graph.Tree
	for i := 1; i < 6; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), float64(i))
		tree.Edges = append(tree.Edges, graph.Edge{A: graph.NodeID(i), B: graph.NodeID(i + 1), Weight: float64(i)})
		tree.Weight += float64(i)
	}
	sched := sim.New(2)
	net := netsim.New(sched, g)
	bt, err := broadcast.SetupOf(broadcast.ConfigOf[string]{
		Net:  net,
		Tree: tree,
		Eval: func(id graph.NodeID, q any) []string {
			return []string{fmt.Sprintf("n%d:%v", id, q)}
		},
		Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, bt
}

// TestConvergecastUnderNodeKill is the E6 chaos regression: a child server
// dies mid-tree via the faults pipeline, and the convergecast must still
// complete within the depth-scaled timeout with the dead subtree explicitly
// flagged — a partial aggregate, never a silent merge. After recovery the
// same tree must serve a complete query again.
func TestConvergecastUnderNodeKill(t *testing.T) {
	const timeout = 20 * sim.Unit
	sched, net, bt := chaosTree(t, timeout)

	// Drive the crash through the faults injector, exactly as the chaos
	// harness does, and verify via the Observer hook that it landed.
	nodes := map[string]graph.NodeID{}
	for i := 1; i <= 6; i++ {
		nodes[fmt.Sprintf("N%d", i)] = graph.NodeID(i)
	}
	inj := faults.NewSimTarget(net, nodes, sim.Unit)
	var observed []faults.Event
	inj.Observer = func(e faults.Event) { observed = append(observed, e) }

	if err := inj.Inject(faults.Event{Kind: faults.Crash, Target: "N4"}); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0].Kind != faults.Crash {
		t.Fatalf("observer saw %v, want the crash", observed)
	}
	if net.IsUp(4) {
		t.Fatal("node 4 still up after injected crash")
	}

	start := sched.Now()
	id, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, at, _, ok := bt.Take(id)
	if !ok {
		t.Fatal("convergecast never completed at the origin")
	}
	// Bounded completion: the origin's wait scales with its deepest awaited
	// subtree; node 3's own timeout for dead node 4 resolves within it.
	bound := start + timeout*sim.Time(bt.MaxDepthFrom(1)) + sim.Unit
	if at > bound {
		t.Fatalf("completed at %d, past bound %d", at, bound)
	}
	// The dead child is flagged, not silently merged (E6).
	if len(res.Unavailable) == 0 {
		t.Fatal("dead subtree not marked unavailable")
	}
	if res.Unavailable[0] != 4 {
		t.Fatalf("unavailable = %v, want node 4 flagged", res.Unavailable)
	}
	// Nothing from the dead subtree (4,5,6) can appear among the items.
	for _, it := range res.Items {
		for dead := 4; dead <= 6; dead++ {
			if it == fmt.Sprintf("n%d:q", dead) {
				t.Fatalf("item %v from dead subtree in partial aggregate", it)
			}
		}
	}
	if res.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3 (live side only)", res.Nodes)
	}

	// Recovery closes the window: the next query is complete again.
	if err := inj.Inject(faults.Event{Kind: faults.Recover, Target: "N4"}); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 2 {
		t.Fatalf("observer missed the recovery: %v", observed)
	}
	id2, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res2, _, _, ok := bt.Take(id2)
	if !ok || res2.Nodes != 6 || len(res2.Unavailable) != 0 {
		t.Fatalf("post-recovery result = %+v, %v; want 6 nodes, no unavailable", res2, ok)
	}
}

// TestConvergecastMidFlightCrash kills a node after it forwarded the query
// but before its children's summaries return: its parent must time out and
// flag it, and the whole query still completes within the bound.
func TestConvergecastMidFlightCrash(t *testing.T) {
	const timeout = 20 * sim.Unit
	sched, net, bt := chaosTree(t, timeout)

	start := sched.Now()
	id, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let the query propagate past node 4, then kill it: node 5 and 6's
	// summaries will fly into a dead node and vanish.
	sched.RunFor(3 * sim.Unit)
	net.Crash(4)
	sched.Run()

	res, at, _, ok := bt.Take(id)
	if !ok {
		t.Fatal("no result")
	}
	bound := start + timeout*sim.Time(bt.MaxDepthFrom(1)) + sim.Unit
	if at > bound {
		t.Fatalf("completed at %d, past bound %d", at, bound)
	}
	if len(res.Unavailable) == 0 {
		t.Fatal("mid-flight crash silently merged")
	}
}
