package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// The §3.1 rig of E1/E2, E12 and E14: one region R1, a chain of servers
// S1…Sn (nodes 101…), host HA on S1 and host HB on S2. It is a core.Fabric
// built without users; each experiment registers its own with explicit
// authority lists.
const (
	rigHA graph.NodeID = 1
	rigHB graph.NodeID = 2
)

// newRig builds the rig with n ≥ 2 servers and its simulation seeded with
// seed. It returns the fabric and the servers in chain order.
func newRig(n int, seed int64) (*core.Fabric, []graph.NodeID) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: rigHA, Label: "HA", Region: "R1", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: rigHB, Label: "HB", Region: "R1", Kind: graph.KindHost})
	servers := make([]graph.NodeID, n)
	for i := range servers {
		servers[i] = graph.NodeID(101 + i)
		g.MustAddNode(graph.Node{ID: servers[i], Label: fmt.Sprintf("S%d", i+1), Region: "R1", Kind: graph.KindServer})
	}
	g.MustAddEdge(rigHA, servers[0], 1)
	g.MustAddEdge(rigHB, servers[1], 1)
	for i := 1; i < n; i++ {
		g.MustAddEdge(servers[i-1], servers[i], 1)
	}
	f, err := core.NewFabric(g, server.Config{Net: netsim.New(sim.New(seed), g)}, nil, 0, 0)
	if err != nil {
		panic(err)
	}
	return f, servers
}

// register enters a user of host into the rig with the authority list.
func register(f *core.Fabric, user string, host graph.NodeID, list []graph.NodeID) *client.Agent {
	a, err := f.Register(names.MustParse(user), host, list)
	if err != nil {
		panic(err)
	}
	return a
}

// churnRun is the §3.1.2c loop of E1/E2 and E12.
type churnRun struct {
	servers   int     // rig size
	listLen   int     // alice's authority list: the first listLen servers
	seed      int64   // the simulation's seed
	churnSeed int64   // the crash draws' seed
	rounds    int     // rounds of churn, send and retrieve
	p         float64 // per server and round, the probability it is down
	pollAll   bool    // alice retrieves by PollAll, not GetMail
	// probe, when set, sees alice's agent before each retrieval.
	probe func(alice *client.Agent)
}

// run builds the rig with alice on HA and bob on HB. Bob's list is every
// server, from S2 on and then S1, so his submissions rarely fail. Each round the servers churn (each is down with
// probability p, and at least one stays up: the paper's liveness
// assumption), bob sends alice one message, 40 units pass and alice
// retrieves. Then every server recovers, retries finish and alice retrieves
// twice (the second pass clears PreviouslyUnavailableServers stragglers). It
// returns how many sends a server accepted and alice's counters.
func (c churnRun) run() (sent int, st client.Stats) {
	f, servers := newRig(c.servers, c.seed)
	alice := register(f, "R1.HA.alice", rigHA, servers[:c.listLen])
	bob := register(f, "R1.HB.bob", rigHB, append(slices.Clone(servers[1:]), servers[0]))
	retrieve := alice.GetMail
	if c.pollAll {
		retrieve = alice.PollAll
	}
	rng := rand.New(rand.NewSource(c.churnSeed))
	for r := 0; r < c.rounds; r++ {
		anyUp := false
		for _, id := range servers {
			if rng.Float64() < c.p {
				f.Net.Crash(id)
			} else {
				f.Net.Recover(id)
				anyUp = true
			}
		}
		if !anyUp {
			f.Net.Recover(servers[rng.Intn(len(servers))])
		}
		if _, err := bob.Send([]names.Name{alice.User()}, "s", "b"); err == nil {
			sent++
		}
		f.Sched.RunFor(40 * sim.Unit)
		if c.probe != nil {
			c.probe(alice)
		}
		retrieve()
	}
	for _, id := range servers {
		f.Net.Recover(id)
	}
	f.Sched.RunFor(400 * sim.Unit)
	f.Sched.Run()
	retrieve()
	retrieve()
	return sent, alice.Stats()
}
