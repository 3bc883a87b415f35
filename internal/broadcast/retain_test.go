package broadcast

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// randomTree builds a tree of n single-region nodes, node i hanging off a
// random earlier one, every link one unit long, and a broadcast tree on it.
func randomTree[T any](t testing.TB, n int, seed int64, eval Evaluator[T]) (*netsim.Network, *TreeOf[T]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	var tr graph.Tree
	for i := 1; i <= n; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: "A"})
		if i > 1 {
			p := graph.NodeID(1 + rng.Intn(i-1))
			g.MustAddEdge(graph.NodeID(i), p, 1)
			tr.Edges = append(tr.Edges, graph.Edge{A: graph.NodeID(i), B: p, Weight: 1})
		}
	}
	net := netsim.New(sim.New(seed), g)
	bt, err := SetupOf(ConfigOf[T]{Net: net, Tree: tr, Eval: eval, Timeout: 10 * sim.Unit})
	if err != nil {
		t.Fatal(err)
	}
	return net, bt
}

// TestTreeRetainsNothing is north-star aim 3 for §3.3: a long-running tree
// holds bounded memory. 2 000 queries, three in seven against a node that is
// down, slow or killed mid-flight so that parents time out and summaries
// arrive late, each taken once complete:
// afterwards no node and no table knows any of them, and the live heap is as
// large after query 2 000 as it was after query 200. Then the two messages a
// forgotten ID could be confused by — a summary for it, and the Query itself
// again — change nothing.
func TestTreeRetainsNothing(t *testing.T) {
	net, bt := randomTree(t, 16, 5, func(id graph.NodeID, q any) []int { return []int{int(id), q.(int)} })
	sched := net.Scheduler()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var at200 uint64
	partial := 0
	for i := 1; i <= 2000; i++ {
		victim := graph.NodeID(2 + i%15)
		switch i % 7 {
		case 0:
			net.Crash(victim)
		case 3:
			net.SetExtraDelay(victim, 200*sim.Unit) // its summary will come after its parent gave up
		}
		id, err := bt.Start(1, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 5 {
			sched.RunFor(2 * sim.Unit)
			net.Crash(victim) // with the query below it
		}
		// Stop at the origin's answer: what the victim's subtree still has in
		// flight lands, late, under the next queries.
		for !bt.queries[id].done && sched.Step() {
		}
		net.Recover(victim)
		net.SetExtraDelay(victim, 0)
		sum, _, _, ok := bt.Take(id)
		if !ok || len(sum.Items) != 2*sum.Nodes {
			t.Fatalf("query %d: %+v, %v", i, sum, ok)
		}
		if len(sum.Unavailable) > 0 {
			partial++
		}
		if i == 200 {
			at200 = heap()
		}
	}
	sched.Run()
	grown := int64(heap()) - int64(at200)
	t.Logf("live heap grew %d bytes between query 200 and query 2000", grown)
	if grown > 32<<10 {
		t.Errorf("live heap grew %d bytes between query 200 and query 2000 (%.1f per query)", grown, float64(grown)/1800)
	}
	if partial < 100 {
		t.Errorf("only %d queries timed out on a subtree", partial)
	}
	assertNothingPending(t, bt)

	// A complete, untaken query; then a forged summary for it from a child of
	// the origin, and its Query delivered to that child a second time (the
	// child answers again — it has forgotten the ID — and the origin, which
	// has too, drops the answer).
	id, _ := bt.Start(1, 0, nil)
	sched.Run()
	child := bt.adj[1][0]
	_ = net.Send(child, 1, bt.summaries.Box(SummaryOf[int]{ID: id, From: child, Items: []int{-1}, Nodes: 99}))
	_ = net.Send(1, child, bt.queryBox.Box(Query{ID: id, Origin: 1, Payload: 0}))
	sched.Run()
	sum, _, _, ok := bt.Take(id)
	if !ok || sum.Nodes != 16 || len(sum.Items) != 32 || slices.Contains(sum.Items, -1) {
		t.Errorf("a late summary or a repeated query changed the result: %+v, %v", sum, ok)
	}
	// The same two once the query has been taken.
	_ = net.Send(child, 1, bt.summaries.Box(SummaryOf[int]{ID: id, From: child, Items: []int{-1}, Nodes: 99}))
	_ = net.Send(1, child, bt.queryBox.Box(Query{ID: id, Origin: 1, Payload: 0}))
	sched.Run()
	if _, _, _, again := bt.Take(id); again {
		t.Error("a taken query came back")
	}
	assertNothingPending(t, bt)
}

// TestItemsHandedOver follows one slice from the evaluator that made it to
// the caller of Take: the deepest node of a line returns two items in an array
// with room to spare, every node above it one. Each parent adopts the longer
// slice and appends its own, so the array Take returns is the leaf's — no
// level copied it — and it holds everybody's items.
func TestItemsHandedOver(t *testing.T) {
	leaf := make([]string, 2, 64)
	leaf[0], leaf[1] = "leaf", "leaf too"
	g := graph.New()
	var tr graph.Tree
	for i := 1; i <= 6; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: "A"})
		if i > 1 {
			g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
			tr.Edges = append(tr.Edges, graph.Edge{A: graph.NodeID(i - 1), B: graph.NodeID(i), Weight: 1})
		}
	}
	net := netsim.New(sim.New(1), g)
	bt, err := SetupOf(ConfigOf[string]{Net: net, Tree: tr, Eval: func(id graph.NodeID, q any) []string {
		if id == 6 {
			return leaf
		}
		return []string{"inner"}
	}})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := bt.Start(1, "q", nil)
	net.Scheduler().Run()
	sum, _, _, ok := bt.Take(id)
	if !ok || len(sum.Items) != 7 {
		t.Fatalf("result = %+v, %v", sum, ok)
	}
	if &sum.Items[0] != &leaf[0] {
		t.Error("the leaf's slice was copied on its way up")
	}
	if got := leaf[:7]; !slices.Equal(got, sum.Items) {
		t.Errorf("items = %v, the leaf's array holds %v", sum.Items, got)
	}
	assertNothingPending(t, bt)
}

// TestQueryTransitAllocs is the budget of a warmed query that matches
// nothing: Start, the whole broadcast and convergecast over 16 nodes, and
// Take allocate the boxed payload and nothing else — records, Query and
// Summary boxes, flights and the timers are all recycled.
func TestQueryTransitAllocs(t *testing.T) {
	net, bt := randomTree[UserMatch](t, 16, 9, nil)
	sched := net.Scheduler()
	i := 1000
	query := func() {
		i++
		id, err := bt.Start(1, i, nil)
		sched.Run()
		if sum, _, _, ok := bt.Take(id); err != nil || !ok || sum.Nodes != 16 {
			t.Fatalf("query %d: %+v, %v, %v", i, sum, ok, err)
		}
	}
	for w := 0; w < 8; w++ {
		query()
	}
	if n := testing.AllocsPerRun(200, query); n > 1 {
		t.Errorf("a warmed query allocates %.1f objects, budget 1 (its payload)", n)
	}
}
