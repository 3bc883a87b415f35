package main

import (
	"fmt"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sim"
)

// faultsTick is the virtual length of one fault-schedule tick.
const faultsTick = 10 * sim.Unit

// runFaults replays a seeded chaos soak on the simulator: a dense
// host–server region, a compiled crash/link/latency/drop schedule, and a
// workload whose every committed message must be retrieved exactly once.
// The same seed reproduces the identical run, event for event.
func runFaults(seed int64, messages, ticks int) error {
	g := graph.New()
	nodes := make(map[string]graph.NodeID)
	users := make(map[graph.NodeID][]string)
	for i := 1; i <= 4; i++ {
		id := graph.HostBase + graph.NodeID(i)
		name := fmt.Sprintf("h%d", i)
		g.MustAddNode(graph.Node{ID: id, Label: name, Region: "R1", Kind: graph.KindHost})
		nodes[name] = id
		for u := 0; u < 3; u++ {
			users[id] = append(users[id], fmt.Sprintf("u%d_%d", i, u))
		}
	}
	for j := 1; j <= 3; j++ {
		id := graph.ServerBase + graph.NodeID(j)
		name := fmt.Sprintf("s%d", j)
		g.MustAddNode(graph.Node{ID: id, Label: name, Region: "R1", Kind: graph.KindServer})
		nodes[name] = id
	}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 3; j++ {
			g.MustAddEdge(graph.HostBase+graph.NodeID(i), graph.ServerBase+graph.NodeID(j), 1)
		}
	}
	g.MustAddEdge(graph.ServerBase+1, graph.ServerBase+2, 1)
	g.MustAddEdge(graph.ServerBase+2, graph.ServerBase+3, 1)
	g.MustAddEdge(graph.ServerBase+1, graph.ServerBase+3, 1)

	sys, err := core.NewSyntax(core.SyntaxConfig{
		Topology: g, UsersPerHost: users, AuthorityLen: 3, Seed: seed,
	})
	if err != nil {
		return err
	}
	sched, err := faults.Compile(faults.Spec{
		Seed:    seed,
		Ticks:   ticks,
		Servers: []string{"s1", "s2", "s3"},
		Links: [][2]string{
			{"s1", "s2"}, {"s2", "s3"}, {"s1", "s3"},
			{"h1", "s1"}, {"h2", "s2"}, {"h3", "s3"}, {"h4", "s1"},
		},
		DropTargets: []string{"h1", "h2", "h3", "h4"},
		Crashes:     7,
		LinkFaults:  6,
		Latencies:   3,
		Drops:       4,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fault schedule (seed %d, %d events over %d ticks):\n", seed, len(sched.Events), sched.Horizon())
	for _, e := range sched.Events {
		fmt.Println("  " + e.String())
	}

	inj := faults.NewSimTarget(sys.Net, nodes, faultsTick)
	res, err := faults.Soak(faults.NewSimSystem(sys, faultsTick), inj, sched, faults.SoakConfig{
		Messages: messages,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	if !res.Ok() {
		return fmt.Errorf("invariant violated: %d lost, %d duplicated", len(res.Lost), len(res.Duplicates))
	}
	fmt.Println("invariant held: every committed message retrieved exactly once")
	return nil
}
