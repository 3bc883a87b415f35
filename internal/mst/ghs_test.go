package mst

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// runGHS executes GHS on g over all nodes and returns the tree and stats.
func runGHS(t *testing.T, g *graph.Graph) (graph.Tree, Stats) {
	t.Helper()
	sched := sim.New(3)
	net := netsim.New(sched, g)
	alg, err := New(net, g.NodeIDs())
	if err != nil {
		t.Fatal(err)
	}
	alg.Start()
	sched.Run()
	if !alg.Halted() {
		t.Fatal("GHS did not halt")
	}
	tree, err := alg.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tree, alg.Stats()
}

func TestTwoNodes(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2})
	g.MustAddEdge(1, 2, 5)
	tree, _ := runGHS(t, g)
	if len(tree.Edges) != 1 || tree.Weight != 5 {
		t.Errorf("tree = %+v", tree)
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 7})
	sched := sim.New(1)
	net := netsim.New(sched, g)
	alg, err := New(net, []graph.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	alg.Start()
	sched.Run()
	tree, err := alg.Tree()
	if err != nil || len(tree.Edges) != 0 {
		t.Errorf("single-node tree = %+v, %v", tree, err)
	}
}

func TestTriangle(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 3; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i)})
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(1, 3, 3)
	tree, _ := runGHS(t, g)
	if tree.Weight != 3 {
		t.Errorf("MST weight = %v, want 3 (edges 1-2 and 2-3)", tree.Weight)
	}
	if !tree.Contains(1, 2) || !tree.Contains(2, 3) || tree.Contains(1, 3) {
		t.Errorf("wrong edges: %+v", tree.Edges)
	}
}

// The classic GHS example shape: two fragments at different levels must
// merge/absorb correctly.
func TestStarPlusChain(t *testing.T) {
	g := graph.New()
	for i := 0; i < 7; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i)})
	}
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 20)
	g.MustAddEdge(0, 3, 30)
	g.MustAddEdge(3, 4, 5)
	g.MustAddEdge(4, 5, 6)
	g.MustAddEdge(5, 6, 7)
	g.MustAddEdge(6, 1, 40) // cycle closer; heaviest, must be excluded
	tree, _ := runGHS(t, g)
	want, err := g.KruskalMST()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Weight-want.Weight) > 1e-9 {
		t.Errorf("GHS weight %v != Kruskal weight %v", tree.Weight, want.Weight)
	}
	if tree.Contains(6, 1) {
		t.Error("cycle-closing heaviest edge included")
	}
}

// Cross-check GHS against Kruskal on many random connected graphs — the
// paper's [GAL83] correctness property, and experiment E5 in DESIGN.md.
func TestGHSMatchesKruskalRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		extra := rng.Intn(2 * n)
		g := graph.RandomConnected(rng, n, extra, 1)
		tree, _ := runGHS(t, g)
		want, err := g.KruskalMST()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tree.Weight-want.Weight) > 1e-9 {
			t.Fatalf("seed %d: GHS weight %v != Kruskal %v", seed, tree.Weight, want.Weight)
		}
		for _, e := range want.Edges {
			if !tree.Contains(e.A, e.B) {
				t.Fatalf("seed %d: MST edge %v missing from GHS tree", seed, e)
			}
		}
	}
}

// GHS message complexity is O(E + N log N); sanity-check the constant is
// sane (the bound in [GAL83] is 5N log2 N + 2E exchanges).
func TestGHSMessageComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, extra := 40, 80
	g := graph.RandomConnected(rng, n, extra, 1)
	_, stats := runGHS(t, g)
	e := g.NumEdges()
	bound := 5*float64(n)*math.Log2(float64(n)) + 2*float64(e)
	if float64(stats.Messages) > bound {
		t.Errorf("GHS used %d messages, above the [GAL83] bound %.0f", stats.Messages, bound)
	}
	if stats.Messages == 0 || stats.ByType["connect"] == 0 || stats.ByType["report"] == 0 {
		t.Errorf("suspicious stats: %+v", stats)
	}
}

func TestGHSOnSubgraphOnly(t *testing.T) {
	// Nodes 0-3 run GHS; node 4 exists in the topology but is not a member
	// and must receive nothing.
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i)})
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 4) // leads outside the member set
	sched := sim.New(1)
	net := netsim.New(sched, g)
	got := 0
	net.MustRegister(4, netsim.HandlerFunc(func(netsim.Envelope) { got++ }))
	alg, err := New(net, []graph.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	alg.Start()
	sched.Run()
	if got != 0 {
		t.Errorf("non-member received %d messages", got)
	}
	tree, err := alg.Tree()
	if err != nil || len(tree.Edges) != 3 {
		t.Errorf("tree = %+v, %v", tree, err)
	}
}

func TestNewValidation(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2})
	g.MustAddNode(graph.Node{ID: 3})
	g.MustAddEdge(1, 2, 1)
	sched := sim.New(1)
	net := netsim.New(sched, g)

	if _, err := New(net, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty members err = %v", err)
	}
	if _, err := New(net, []graph.NodeID{1, 2, 3}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected err = %v", err)
	}
	if _, err := New(net, []graph.NodeID{1, 99}); err == nil {
		t.Error("missing member accepted")
	}

	g2 := graph.New()
	for i := 1; i <= 3; i++ {
		g2.MustAddNode(graph.Node{ID: graph.NodeID(i)})
	}
	g2.MustAddEdge(1, 2, 1)
	g2.MustAddEdge(2, 3, 1) // duplicate weight
	net2 := netsim.New(sim.New(1), g2)
	if _, err := New(net2, []graph.NodeID{1, 2, 3}); !errors.Is(err, ErrDuplicateWeights) {
		t.Errorf("duplicate weights err = %v", err)
	}
}

func TestTreeBeforeCompletion(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2})
	g.MustAddEdge(1, 2, 1)
	net := netsim.New(sim.New(1), g)
	alg, err := New(net, []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alg.Tree(); !errors.Is(err, ErrIncomplete) {
		t.Errorf("Tree before run err = %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() *graph.Graph {
		rng := rand.New(rand.NewSource(5))
		return graph.RandomConnected(rng, 15, 20, 1)
	}
	t1, s1 := runGHS(t, build())
	t2, s2 := runGHS(t, build())
	if t1.Weight != t2.Weight || s1.Messages != s2.Messages {
		t.Errorf("nondeterministic: weights %v/%v, messages %d/%d",
			t1.Weight, t2.Weight, s1.Messages, s2.Messages)
	}
}

// Halted reports whether a core node has executed the halt step (the whole
// tree is then complete; the remaining nodes are quiescent).
func (a *Algorithm) Halted() bool { return a.halted }
