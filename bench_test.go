// Benchmarks regenerating the paper's tables and figures plus the ablations
// DESIGN.md calls out. One benchmark per table/figure, named after it; the
// E-series benches carry the paper-claim experiments. Domain results (polls
// per retrieval, cost ratios) are emitted with b.ReportMetric so `go test
// -bench` output reads like the paper's evaluation.
package largemail_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/assign"
	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/wire"
)

func figure1Config() assign.Config {
	ex := graph.Figure1()
	commW, procW, procTime := assign.PaperWeights()
	maxLoad := make(map[graph.NodeID]int)
	for _, s := range ex.Servers {
		maxLoad[s] = 100
	}
	return assign.Config{
		Topology: ex.G, Hosts: ex.Hosts, Servers: ex.Servers,
		Users: ex.Users, MaxLoad: maxLoad,
		ProcTime: procTime, CommW: commW, ProcW: procW,
	}
}

// BenchmarkFigure1Topology regenerates Figure 1: the example topology with
// its zero-load shortest-path costs.
func BenchmarkFigure1Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex := graph.Figure1()
		for _, h := range ex.Hosts {
			if _, err := ex.G.ShortestPaths(h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1Initialization regenerates Table 1: the nearest-server
// initialization of the §3.1.1 assignment.
func BenchmarkTable1Initialization(b *testing.B) {
	cfg := figure1Config()
	a, err := assign.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Initialize()
	}
	b.ReportMetric(float64(a.Load(cfg.Servers[1])), "S2_load")
}

// BenchmarkTable2Balancing regenerates Table 2: the full balancing run.
func BenchmarkTable2Balancing(b *testing.B) {
	cfg := figure1Config()
	a, err := assign.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var moves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Initialize()
		moves = a.Balance().Moves
	}
	b.ReportMetric(float64(moves), "moves")
	b.ReportMetric(a.MaxUtilization(), "max_util")
}

// BenchmarkTable3Skewed regenerates Table 3: the skewed 100/100/20 variant.
func BenchmarkTable3Skewed(b *testing.B) {
	ex := graph.Table3Variant()
	commW, procW, procTime := assign.PaperWeights()
	maxLoad := make(map[graph.NodeID]int)
	for _, s := range ex.Servers {
		maxLoad[s] = 100
	}
	a, err := assign.New(assign.Config{
		Topology: ex.G, Hosts: ex.Hosts, Servers: ex.Servers,
		Users: ex.Users, MaxLoad: maxLoad,
		ProcTime: procTime, CommW: commW, ProcW: procW,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Initialize()
		a.Balance()
	}
	b.ReportMetric(a.MaxUtilization(), "max_util")
}

// BenchmarkFigure2BackboneMST regenerates Figure 2: back-bone MST plus
// distributed GHS local MSTs on a multi-region internetwork.
func BenchmarkFigure2BackboneMST(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.MultiRegion(rng, graph.MultiRegionSpec{
		Regions: 4, NodesPerRegion: 8, ExtraIntra: 4, InterLinks: 2,
	})
	var msgs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mst.Backbone(g, true)
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Stats.Messages
	}
	b.ReportMetric(float64(msgs), "ghs_msgs")
}

// benchMailWorld builds a one-region three-server world for the retrieval
// benches: a core.Fabric without users, alice on HA and bob on HB registered
// with lists of their own.
func benchMailWorld(b *testing.B) (*sim.Scheduler, *client.Agent, *client.Agent) {
	b.Helper()
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1, Label: "HA", Region: "R1", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: 2, Label: "HB", Region: "R1", Kind: graph.KindHost})
	for i := graph.NodeID(101); i <= 103; i++ {
		g.MustAddNode(graph.Node{ID: i, Label: fmt.Sprintf("S%d", i-100), Region: "R1", Kind: graph.KindServer})
	}
	g.MustAddEdge(1, 101, 1)
	g.MustAddEdge(2, 102, 1)
	g.MustAddEdge(101, 102, 1)
	g.MustAddEdge(102, 103, 1)
	f, err := core.NewFabric(g, server.Config{Net: netsim.New(sim.New(9), g)}, nil, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	alice, err := f.Register(names.MustParse("R1.HA.alice"), 1, []graph.NodeID{101, 102, 103})
	if err != nil {
		b.Fatal(err)
	}
	bob, err := f.Register(names.MustParse("R1.HB.bob"), 2, []graph.NodeID{102, 101, 103})
	if err != nil {
		b.Fatal(err)
	}
	return f.Sched, alice, bob
}

// BenchmarkE1GetMail measures the paper's retrieval algorithm: one full
// send+deliver+retrieve round trip, reporting polls per retrieval (§5's ≈1).
func BenchmarkE1GetMail(b *testing.B) {
	sched, alice, bob := benchMailWorld(b)
	alice.GetMail() // cold start outside the measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bob.Send([]names.Name{alice.User()}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		alice.GetMail()
	}
	st := alice.Stats()
	b.ReportMetric(float64(st.Polls)/float64(st.Retrievals), "polls/retrieval")
}

// BenchmarkE1PollAll is the baseline ablation: polling the full authority
// list on every retrieval.
func BenchmarkE1PollAll(b *testing.B) {
	sched, alice, bob := benchMailWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bob.Send([]names.Name{alice.User()}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		alice.PollAll()
	}
	st := alice.Stats()
	b.ReportMetric(float64(st.Polls)/float64(st.Retrievals), "polls/retrieval")
}

// BenchmarkE3BalanceLarge measures the assignment algorithm at scale
// (48 hosts / 8 servers), single-user moves.
func BenchmarkE3BalanceLarge(b *testing.B) {
	benchBalance(b, 1)
}

// BenchmarkE3BalanceBatched is the paper's accelerated variant ablation:
// ten users per move.
func BenchmarkE3BalanceBatched(b *testing.B) {
	benchBalance(b, 10)
}

func benchBalance(b *testing.B, batch int) {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(rng, 56, 28, 1)
	ids := g.NodeIDs()
	srv := ids[:8]
	hst := ids[8:]
	users := make(map[graph.NodeID]int)
	total := 0
	for _, h := range hst {
		users[h] = 5 + rng.Intn(60)
		total += users[h]
	}
	maxLoad := make(map[graph.NodeID]int)
	for _, s := range srv {
		maxLoad[s] = total/8 + total/24
	}
	commW, procW, procTime := assign.PaperWeights()
	a, err := assign.New(assign.Config{
		Topology: g, Hosts: hst, Servers: srv,
		Users: users, MaxLoad: maxLoad,
		ProcTime: procTime, CommW: commW, ProcW: procW,
		MoveBatch: batch,
	})
	if err != nil {
		b.Fatal(err)
	}
	var moves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Initialize()
		moves = a.Balance().Moves
	}
	b.ReportMetric(float64(moves), "moves")
}

// BenchmarkE3BalanceScale2k measures the assignment engine on the PR's
// large-topology instance through the public API: 2 000 nodes, 24 servers,
// ≈108 000 users, batched moves. The matching reference-engine numbers live
// in internal/assign (BenchmarkBalanceScaleReference).
func BenchmarkE3BalanceScale2k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(rng, 2000, 6000, 1)
	ids := g.NodeIDs()
	srv := ids[:24]
	hst := ids[24:]
	users := make(map[graph.NodeID]int, len(hst))
	total := 0
	for _, h := range hst {
		users[h] = 20 + rng.Intn(71)
		total += users[h]
	}
	maxLoad := make(map[graph.NodeID]int, len(srv))
	for _, s := range srv {
		maxLoad[s] = total/len(srv) + total/(3*len(srv))
	}
	commW, procW, procTime := assign.PaperWeights()
	a, err := assign.New(assign.Config{
		Topology: g, Hosts: hst, Servers: srv,
		Users: users, MaxLoad: maxLoad,
		ProcTime: procTime, CommW: commW, ProcW: procW,
		MoveBatch: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	var stats assign.BalanceStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Initialize()
		stats = a.Balance()
	}
	b.ReportMetric(float64(total), "users")
	b.ReportMetric(float64(stats.Moves), "moves")
	b.ReportMetric(float64(stats.UsersMoved), "users_moved")
	b.ReportMetric(a.MaxUtilization(), "max_util")
}

// BenchmarkE4TreeBroadcast measures one full broadcast+convergecast over the
// back-bone MST of a 6×8 multi-region internetwork.
func BenchmarkE4TreeBroadcast(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := graph.MultiRegion(rng, graph.MultiRegionSpec{
		Regions: 6, NodesPerRegion: 8, ExtraIntra: 4, InterLinks: 2,
	})
	res, err := mst.Backbone(g, false)
	if err != nil {
		b.Fatal(err)
	}
	origin := g.NodeIDs()[0]
	b.ResetTimer()
	var treeCost float64
	for i := 0; i < b.N; i++ {
		net := netsim.New(sim.New(33), g)
		bt, err := broadcast.Setup(broadcast.Config{Net: net, Tree: res.Combined})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bt.Start(origin, "blast", nil); err != nil {
			b.Fatal(err)
		}
		net.Scheduler().Run()
		treeCost = float64(net.Stats().Get("cost_milli")) / 1000
	}
	// Flood baseline cost for the ratio metric.
	paths, err := g.ShortestPaths(origin)
	if err != nil {
		b.Fatal(err)
	}
	flood := 0.0
	for _, id := range g.NodeIDs() {
		if id != origin {
			flood += 2 * paths.Dist[id]
		}
	}
	b.ReportMetric(flood/treeCost, "flood/tree_cost")
}

// BenchmarkE5GHS measures one full distributed GHS MST construction on a
// 60-node random graph, reporting the protocol message count.
func BenchmarkE5GHS(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	g := graph.RandomConnected(rng, 60, 90, 1)
	var msgs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := netsim.New(sim.New(44), g)
		alg, err := mst.New(net, g.NodeIDs())
		if err != nil {
			b.Fatal(err)
		}
		alg.Start()
		net.Scheduler().Run()
		if _, err := alg.Tree(); err != nil {
			b.Fatal(err)
		}
		msgs = alg.Stats().Messages
	}
	b.ReportMetric(float64(msgs), "ghs_msgs")
}

// BenchmarkE7RoamingDelivery measures a location-independent delivery to a
// roaming user (probe + consult + alert path).
func BenchmarkE7RoamingDelivery(b *testing.B) {
	ex := graph.Figure1()
	users := map[graph.NodeID][]string{
		ex.Hosts[0]: {"alice"},
		ex.Hosts[1]: {"bob"},
	}
	s, err := core.NewLocation(core.LocationConfig{
		Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 55,
	})
	if err != nil {
		b.Fatal(err)
	}
	alice, _ := s.Agent(names.MustParse("R1.H1.alice"))
	bob, _ := s.Agent(names.MustParse("R1.H2.bob"))
	if err := alice.MoveTo(ex.Hosts[5]); err != nil {
		b.Fatal(err)
	}
	if err := alice.Login(); err != nil {
		b.Fatal(err)
	}
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bob.Send([]names.Name{alice.User()}, "m", "b"); err != nil {
			b.Fatal(err)
		}
		s.Run()
		alice.GetMail()
	}
}

// BenchmarkE10AttributeSearch measures one full-tree attribute search over
// 40 profiles on 10 nodes.
func BenchmarkE10AttributeSearch(b *testing.B) {
	g := graph.MultiRegion(rand.New(rand.NewSource(66)), graph.MultiRegionSpec{
		Regions: 3, NodesPerRegion: 4, ExtraIntra: 2, InterLinks: 1,
	})
	profiles := make(map[graph.NodeID][]*attr.Profile)
	i := 0
	for _, n := range g.Nodes() {
		for k := 0; k < 4; k++ {
			u := names.Name{Region: "r", Host: "h", User: fmt.Sprintf("u%d", i)}
			p := &attr.Profile{User: u}
			p.Add(attr.TypeExpertise, []string{"mail", "db", "net"}[i%3], attr.Public)
			profiles[n.ID] = append(profiles[n.ID], p)
			i++
		}
	}
	q := attr.Query{Predicates: []attr.Predicate{
		{Type: attr.TypeExpertise, Op: attr.OpEquals, Pattern: "mail"},
	}}
	origin := g.NodeIDs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewAttribute(core.AttributeConfig{Topology: g, Profiles: profiles, Seed: 66})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Search(origin, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryPipeline measures one end-to-end syntax-directed
// submission → resolution → deposit → retrieval on the Figure 1 region.
func BenchmarkDeliveryPipeline(b *testing.B) {
	ex := graph.Figure1()
	users := map[graph.NodeID][]string{
		ex.Hosts[0]: {"alice"},
		ex.Hosts[1]: {"bob"},
	}
	s, err := core.NewSyntax(core.SyntaxConfig{Topology: ex.G, UsersPerHost: users, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	alice := names.MustParse("R1.H1.alice")
	bob := names.MustParse("R1.H2.bob")
	agent, _ := s.Agent(bob)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(alice, []names.Name{bob}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		s.Run()
		agent.GetMail()
	}
}

// BenchmarkSimKernel measures raw event-kernel throughput.
func BenchmarkSimKernel(b *testing.B) {
	s := sim.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(sim.Time(i%1000), func() {})
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkLevenshtein measures the fuzzy-name matcher on realistic name
// lengths.
func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		attr.Levenshtein("alice liddell", "alise lidell")
	}
}

// BenchmarkWireRoundTrip measures a full submit+getmail cycle over the TCP
// wire protocol against a live cluster.
func BenchmarkWireRoundTrip(b *testing.B) {
	srv, err := wire.NewServer("127.0.0.1:0", []string{"s1", "s2"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("R1.h1.alice"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		if _, err := c.GetMail("R1.h1.alice"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveClusterSubmit measures the goroutine-per-server runtime
// without the TCP layer.
func BenchmarkLiveClusterSubmit(b *testing.B) {
	c := livenet.NewClusterWith(livenet.ClusterConfig{})
	defer c.Close()
	for _, n := range []string{"s1", "s2"} {
		if _, err := c.AddServer(n); err != nil {
			b.Fatal(err)
		}
	}
	user := names.MustParse("R1.h1.alice")
	c.Directory().SetAuthority(user, []string{"s1", "s2"})
	agent, err := c.NewAgent(user)
	if err != nil {
		b.Fatal(err)
	}
	from := names.MustParse("R1.h2.bob")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(from, []names.Name{user}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		agent.GetMail()
	}
}

// BenchmarkLocindRehash measures the §3.2.3c reconfiguration lever: change
// the sub-group count and migrate affected mailboxes.
func BenchmarkLocindRehash(b *testing.B) {
	ex := graph.Figure1()
	users := make(map[graph.NodeID][]string)
	var all []names.Name
	for i, h := range ex.Hosts {
		for u := 0; u < 6; u++ {
			users[h] = append(users[h], fmt.Sprintf("u%d_%d", i, u))
			all = append(all, names.Name{Region: "R1", Host: fmt.Sprintf("H%d", i+1), User: users[h][u]})
		}
	}
	s, err := core.NewLocation(core.LocationConfig{
		Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 88,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Buffer one message per user so rehash has mailboxes to move.
	sender, _ := s.Agent(all[0])
	for _, u := range all[1:] {
		if err := sender.Send([]names.Name{u}, "m", "b"); err != nil {
			b.Fatal(err)
		}
	}
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 4 + i%5
		if _, err := s.Sys.Rehash(k); err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
}
