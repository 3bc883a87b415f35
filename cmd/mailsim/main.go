// Command mailsim drives a randomized mail workload through one of the
// paper's designs on a synthetic region and prints traffic statistics and
// the §4 evaluation report.
//
// Usage:
//
//	mailsim                                  # defaults: syntax design
//	mailsim -design location -roam 0.3
//	mailsim -hosts 12 -servers 4 -users 8 -rounds 500 -fail 0.1 -seed 7
//	mailsim -datadir /tmp/mailsim            # durable stores (syntax design)
//
// With -datadir the syntax design journals every server's mailbox store to
// <datadir>/s<node>; a later run over the same directory recovers buffered
// mail by WAL replay.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mailsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mailsim", flag.ContinueOnError)
	design := fs.String("design", "syntax", "mail-system design: syntax | location")
	hosts := fs.Int("hosts", 8, "hosts in the region")
	servers := fs.Int("servers", 3, "servers in the region")
	users := fs.Int("users", 4, "users per host")
	rounds := fs.Int("rounds", 200, "workload rounds (one message per round)")
	failProb := fs.Float64("fail", 0, "per-round server crash probability")
	roamProb := fs.Float64("roam", 0, "per-round user roam probability (location design)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	datadir := fs.String("datadir", "", "durable store root for the syntax design (empty = memory-only)")
	fsyncFlag := fs.String("fsync", "never", "WAL fsync policy with -datadir: never|always")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fsync, err := mailstore.ParseFsyncMode(*fsyncFlag)
	if err != nil {
		return err
	}

	g, userMap := regionTopology(*hosts, *servers, *users, *seed)
	rng := rand.New(rand.NewSource(*seed))
	switch *design {
	case "syntax":
		return runSyntax(g, userMap, rng, *rounds, *failProb, *datadir, fsync)
	case "location":
		if *datadir != "" {
			return fmt.Errorf("-datadir is only wired into the syntax design")
		}
		return runLocation(g, userMap, rng, *rounds, *failProb, *roamProb)
	default:
		return fmt.Errorf("unknown design %q", *design)
	}
}

// regionTopology builds one region: hosts and servers on a random connected
// graph, plus a user population.
func regionTopology(hosts, servers, usersPerHost int, seed int64) (*graph.Graph, map[graph.NodeID][]string) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(rng, hosts+servers, (hosts+servers)/2, 1)
	userMap := make(map[graph.NodeID][]string)
	i := 0
	for _, n := range g.Nodes() {
		node := n
		if i < servers {
			node.Kind = graph.KindServer
			node.Label = fmt.Sprintf("S%d", i+1)
		} else {
			node.Kind = graph.KindHost
			node.Label = fmt.Sprintf("H%d", i-servers+1)
			for u := 0; u < usersPerHost; u++ {
				userMap[n.ID] = append(userMap[n.ID], fmt.Sprintf("u%d_%d", i-servers+1, u))
			}
		}
		node.Region = "R1"
		// Rebuild the node with roles; graph.Node is a value in the map.
		_ = g.RemoveNode(n.ID)
		g.MustAddNode(node)
		i++
	}
	// RemoveNode dropped the edges; rebuild a fresh random graph over the
	// role-tagged nodes instead.
	rng2 := rand.New(rand.NewSource(seed + 1))
	ids := g.NodeIDs()
	perm := rng2.Perm(len(ids))
	for j := 1; j < len(ids); j++ {
		a, b := ids[perm[j]], ids[perm[rng2.Intn(j)]]
		if _, ok := g.Weight(a, b); !ok {
			g.MustAddEdge(a, b, 1+rng2.Float64())
		}
	}
	for extra := 0; extra < len(ids)/2; extra++ {
		a, b := ids[rng2.Intn(len(ids))], ids[rng2.Intn(len(ids))]
		if a == b {
			continue
		}
		if _, ok := g.Weight(a, b); !ok {
			g.MustAddEdge(a, b, 1+rng2.Float64())
		}
	}
	return g, userMap
}

func runSyntax(g *graph.Graph, userMap map[graph.NodeID][]string, rng *rand.Rand, rounds int, failProb float64, datadir string, fsync mailstore.FsyncMode) error {
	s, err := core.NewSyntax(core.SyntaxConfig{
		Topology: g, UsersPerHost: userMap, Seed: rng.Int63(),
		Server: server.Config{DataDir: datadir, Fsync: fsync},
	})
	if err != nil {
		return err
	}
	defer s.Close()
	users := s.Users()
	serverIDs := s.Servers()
	for r := 0; r < rounds; r++ {
		churnServers(rng, failProb, serverIDs, func(id graph.NodeID) { s.Net.Crash(id) },
			func(id graph.NodeID) { s.Net.Recover(id) }, func(id graph.NodeID) bool { return s.Net.IsUp(id) })
		from := users[rng.Intn(len(users))]
		to := users[rng.Intn(len(users))]
		_ = s.Send(from, []names.Name{to}, "msg", "body")
		s.RunFor(50 * sim.Unit)
		if a, err := s.Agent(to); err == nil {
			a.GetMail()
		}
	}
	for _, id := range serverIDs {
		s.Net.Recover(id)
	}
	s.RunFor(500 * sim.Unit)
	s.Run()
	for _, u := range users {
		a, _ := s.Agent(u)
		a.GetMail()
		a.GetMail()
	}
	fmt.Print(s.Evaluate().Render())
	printNetStats(s.Net.Stats().Counters())
	return nil
}

func runLocation(g *graph.Graph, userMap map[graph.NodeID][]string, rng *rand.Rand, rounds int, failProb, roamProb float64) error {
	s, err := core.NewLocation(core.LocationConfig{
		Topology: g, Region: "R1", UsersPerHost: userMap, Seed: rng.Int63(),
	})
	if err != nil {
		return err
	}
	users := s.Users()
	var hostNodes []graph.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == graph.KindHost {
			hostNodes = append(hostNodes, n.ID)
		}
	}
	for r := 0; r < rounds; r++ {
		if rng.Float64() < roamProb {
			u := users[rng.Intn(len(users))]
			if a, err := s.Agent(u); err == nil {
				if err := a.MoveTo(hostNodes[rng.Intn(len(hostNodes))]); err == nil {
					_ = a.Login()
				}
			}
		}
		from := users[rng.Intn(len(users))]
		to := users[rng.Intn(len(users))]
		fa, _ := s.Agent(from)
		_ = fa.Send([]names.Name{to}, "msg", "body")
		s.RunFor(50 * sim.Unit)
		if a, err := s.Agent(to); err == nil {
			a.GetMail()
		}
	}
	s.Run()
	for _, u := range users {
		a, _ := s.Agent(u)
		a.GetMail()
	}
	fmt.Print(s.Evaluate().Render())
	printNetStats(s.Net.Stats().Counters())
	_ = failProb // location servers stay up: tracking consistency under churn is future work (§5)
	return nil
}

func churnServers(rng *rand.Rand, p float64, ids []graph.NodeID,
	crash, recover func(graph.NodeID), isUp func(graph.NodeID) bool) {
	if p <= 0 {
		return
	}
	for _, id := range ids {
		if rng.Float64() < p {
			crash(id)
		} else {
			recover(id)
		}
	}
	for _, id := range ids { // keep at least one up
		if isUp(id) {
			return
		}
	}
	recover(ids[rng.Intn(len(ids))])
}

func printNetStats(snap map[string]int64) {
	fmt.Println("network counters:")
	for _, k := range []string{"delivered", "dropped_dest_down", "hops", "cost_milli"} {
		fmt.Printf("  %-18s %d\n", k, snap[k])
	}
}
