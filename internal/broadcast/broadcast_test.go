package broadcast

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// testTree builds a 3-region line tree over 6 nodes:
// A: 1-2, B: 3-4, C: 5-6; tree edges 1-2, 2-3, 3-4, 4-5, 5-6.
func testTree(t *testing.T, timeout sim.Time) (*sim.Scheduler, *netsim.Network, *TreeOf[string]) {
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
	bt, err := SetupOf(ConfigOf[string]{
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

func TestFullBroadcastCollectsAll(t *testing.T) {
	sched, _, bt := testTree(t, 0)
	id, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, _, _, ok := bt.Take(id)
	if !ok {
		t.Fatal("no result")
	}
	if res.Nodes != 6 || len(res.Items) != 6 {
		t.Errorf("nodes/items = %d/%d, want 6/6", res.Nodes, len(res.Items))
	}
	if len(res.Unavailable) != 0 {
		t.Errorf("unavailable = %v", res.Unavailable)
	}
}

func TestStartFromInteriorNode(t *testing.T) {
	sched, _, bt := testTree(t, 0)
	id, err := bt.Start(3, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, _, _, ok := bt.Take(id)
	if !ok || res.Nodes != 6 {
		t.Errorf("result = %+v, %v", res, ok)
	}
}

func TestTargetedQueryPrunesBranches(t *testing.T) {
	sched, net, bt := testTree(t, 0)
	id, err := bt.Start(1, "q", map[string]bool{"A": true, "B": true})
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, _, _, _ := bt.Take(id)
	if res.Nodes != 4 {
		t.Errorf("targeted query evaluated %d nodes, want 4 (regions A+B)", res.Nodes)
	}
	// Nodes 5,6 (region C) saw no traffic: query stops at node 4.
	// Each queried link carries one Query and one Summary → cost counts
	// only edges 1-2, 2-3, 3-4 twice: 2*(1+2+3)=12.
	if got := net.Stats().Get("cost_milli"); got != 12000 {
		t.Errorf("traffic cost = %d milli, want 12000", got)
	}
}

func TestTimeoutMarksUnavailable(t *testing.T) {
	sched, net, bt := testTree(t, 10*sim.Unit)
	net.Crash(5)
	id, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, _, _, ok := bt.Take(id)
	if !ok {
		t.Fatal("no result despite timeouts")
	}
	// Nodes 5 and 6 are behind the crash; node 4 times out on 5.
	if res.Nodes != 4 {
		t.Errorf("nodes = %d, want 4", res.Nodes)
	}
	if len(res.Unavailable) != 1 || res.Unavailable[0] != 5 {
		t.Errorf("unavailable = %v, want [5]", res.Unavailable)
	}
}

func TestLateSummaryIgnored(t *testing.T) {
	// Child 2 is slow because the whole subtree behind it is slow: crash 3
	// so node 2 times out, then recover 3; the late summary must not
	// corrupt a finished query.
	sched, net, bt := testTree(t, 5*sim.Unit)
	net.Crash(3)
	id, err := bt.Start(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunFor(30 * sim.Unit)
	res, _, _, ok := bt.Take(id)
	if !ok {
		t.Fatal("no result")
	}
	items := slices.Clone(res.Items)
	net.Recover(3)
	sched.Run()
	if _, _, _, again := bt.Take(id); again {
		t.Error("late summary resurrected a taken query")
	}
	if !slices.Equal(res.Items, items) {
		t.Error("late summary mutated a taken result")
	}
	assertNothingPending(t, bt)
}

func TestStartErrors(t *testing.T) {
	_, net, bt := testTree(t, 0)
	if _, err := bt.Start(99, "q", nil); err == nil {
		t.Error("unknown origin accepted")
	}
	net.Crash(1)
	if _, err := bt.Start(1, "q", nil); err == nil {
		t.Error("down origin accepted")
	}
}

func TestSetupValidation(t *testing.T) {
	if _, err := Setup(Config{}); err == nil {
		t.Error("nil network accepted")
	}
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	net := netsim.New(sim.New(1), g)
	if _, err := Setup(Config{Net: net, Tree: graph.Tree{}}); err == nil {
		t.Error("empty tree accepted")
	}
	bad := graph.Tree{Edges: []graph.Edge{{A: 1, B: 99, Weight: 1}}}
	if _, err := Setup(Config{Net: net, Tree: bad}); err == nil {
		t.Error("tree node missing from topology accepted")
	}
}

// MST broadcast must beat per-node unicast flooding in total traffic cost on
// multi-region graphs (experiment E4's core claim).
func TestTreeCheaperThanFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.MultiRegion(rng, graph.MultiRegionSpec{
		Regions: 4, NodesPerRegion: 6, ExtraIntra: 4, InterLinks: 2,
	})
	res, err := mst.Backbone(g, false)
	if err != nil {
		t.Fatal(err)
	}

	// Tree broadcast (downward only, to compare pure distribution cost).
	treeNet := netsim.New(sim.New(1), g)
	sched := treeNet.Scheduler()
	bt, err := Setup(Config{Net: treeNet, Tree: res.Combined})
	if err != nil {
		t.Fatal(err)
	}
	origin := g.NodeIDs()[0]
	if _, err := bt.Start(origin, "blast", nil); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	// Query+summary traverse each tree edge once each → 2×tree weight.
	treeCost := float64(treeNet.Stats().Get("cost_milli")) / 1000
	wantTree := 2 * res.Combined.Weight
	if diff := treeCost - wantTree; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("tree broadcast cost = %v, want %v", treeCost, wantTree)
	}

	// Flooding baseline: unicast to every node + unicast response back.
	floodNet := netsim.New(sim.New(1), g)
	fsched := floodNet.Scheduler()
	for _, id := range g.NodeIDs() {
		id := id
		floodNet.MustRegister(id, netsim.HandlerFunc(func(env netsim.Envelope) {
			if env.To != origin {
				_ = floodNet.Send(id, env.From, "resp")
			}
		}))
	}
	for _, id := range g.NodeIDs() {
		if id != origin {
			if err := floodNet.Send(origin, id, "blast"); err != nil {
				t.Fatal(err)
			}
		}
	}
	fsched.Run()
	floodCost := float64(floodNet.Stats().Get("cost_milli")) / 1000

	if treeCost >= floodCost {
		t.Errorf("tree broadcast (%v) not cheaper than flooding (%v)", treeCost, floodCost)
	}
}

func TestSelectRegions(t *testing.T) {
	rows := []mst.RegionCostRow{
		{Region: "A", Total: 3, Reachable: true},
		{Region: "B", Total: 17, Reachable: true},
		{Region: "C", Total: 22, Reachable: true},
		{Region: "D", Total: 5, Reachable: false},
	}
	chosen, cost := SelectRegions(rows, 21)
	if !chosen["A"] || !chosen["B"] || chosen["C"] || chosen["D"] {
		t.Errorf("chosen = %v", chosen)
	}
	if cost != 20 {
		t.Errorf("cost = %v, want 20", cost)
	}
	none, cost := SelectRegions(rows, 1)
	if len(none) != 0 || cost != 0 {
		t.Errorf("tiny budget chose %v at %v", none, cost)
	}
	all, _ := SelectRegions(rows, 1000)
	if len(all) != 3 {
		t.Errorf("large budget chose %v", all)
	}
}

// Property: targeted queries never evaluate nodes outside the target
// regions, and full queries always evaluate everything (absent failures).
func TestPropertyTargeting(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.MultiRegion(rng, graph.MultiRegionSpec{
			Regions: 3, NodesPerRegion: 5, ExtraIntra: 2, InterLinks: 1,
		})
		res, err := mst.Backbone(g, false)
		if err != nil {
			t.Fatal(err)
		}
		net := netsim.New(sim.New(seed), g)
		sched := net.Scheduler()
		var evaluated []graph.NodeID
		bt, err := SetupOf(ConfigOf[string]{
			Net:  net,
			Tree: res.Combined,
			Eval: func(id graph.NodeID, q any) []string {
				evaluated = append(evaluated, id)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]bool{"R1": true, "R3": true}
		origin := g.NodesInRegion("R1")[0].ID
		if _, err := bt.Start(origin, "q", targets); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		for _, id := range evaluated {
			n, _ := g.Node(id)
			if !targets[n.Region] {
				t.Fatalf("seed %d: node %d in region %s evaluated outside targets", seed, id, n.Region)
			}
		}
		want := len(g.NodesInRegion("R1")) + len(g.NodesInRegion("R3"))
		if len(evaluated) != want {
			t.Fatalf("seed %d: evaluated %d nodes, want %d", seed, len(evaluated), want)
		}
	}
}
