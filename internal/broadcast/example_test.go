package broadcast_test

import (
	"fmt"
	"sort"

	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// Example broadcasts a query down a three-node tree and aggregates the
// responses back up (§3.3.1-B convergecast).
func Example() {
	g := graph.New()
	for i := 1; i <= 3; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: "A"})
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	tree := graph.Tree{Edges: []graph.Edge{{A: 1, B: 2, Weight: 1}, {A: 2, B: 3, Weight: 1}}}

	net := netsim.New(sim.New(1), g)
	bt, err := broadcast.SetupOf(broadcast.ConfigOf[string]{
		Net:  net,
		Tree: tree,
		Eval: func(id graph.NodeID, q any) []string {
			return []string{fmt.Sprintf("node%d", id)}
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	qid, _ := bt.Start(1, "who is out there?", nil)
	net.Scheduler().Run()
	res, _, _, _ := bt.Take(qid) // the items are ours now, in no particular order
	sort.Strings(res.Items)
	fmt.Println(res.Items)
	// Output: [node1 node2 node3]
}
