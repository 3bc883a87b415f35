package experiments

import (
	"fmt"

	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/locind"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// E12AuthorityListLength validates §3.1.1: "the length of the list depends
// on the probability of server failures and the degree of reliability
// required" — longer authority lists buy mail-service availability at the
// price of extra polls when failures occur. It runs E1/E2's loop on four
// servers with alice's list cut to each length, and probes each round
// whether alice can reach any of her authority servers (Connect).
func E12AuthorityListLength() Result {
	const rounds = 150
	t := obs.NewTable("E12: authority-list length vs service availability (4 servers, p=0.25 churn, 150 rounds)",
		"ListLen", "ServiceAvail", "Received/Sent", "Polls/Retrieval")
	notes := []string{}
	var prevAvail float64 = -1
	monotone, allReceived := true, true
	for listLen := 1; listLen <= 4; listLen++ {
		accessible := 0
		sent, st := churnRun{
			servers: 4, listLen: listLen, seed: int64(listLen), churnSeed: 99, rounds: rounds, p: 0.25,
			probe: func(alice *client.Agent) {
				if _, err := alice.Connect(); err == nil {
					accessible++
				}
			},
		}.run()
		avail := float64(accessible) / rounds
		var recvRate, polls float64
		if sent > 0 {
			recvRate = float64(st.Received) / float64(sent)
		}
		if st.Retrievals > 0 {
			polls = float64(st.Polls) / float64(st.Retrievals)
		}
		t.AddRow(listLen, avail, recvRate, polls)
		if avail < prevAvail-1e-9 {
			monotone = false
		}
		if recvRate != 1 {
			allReceived = false
		}
		prevAvail = avail
	}
	if monotone {
		notes = append(notes, "service availability grows monotonically with list length, as §3.1.1 argues")
	} else {
		notes = append(notes, "WARNING: availability not monotone in list length")
	}
	notes = append(notes, "a single authority server leaves the user locked out whenever it is down")
	if allReceived {
		notes = append(notes, "every accepted message is eventually received at every length (deposit retries + GetMail)")
	} else {
		notes = append(notes, "WARNING: some accepted message was never received")
	}
	return Result{
		ID:    "e12",
		Title: "Authority-list length buys reliability (§3.1.1)",
		Table: t,
		Notes: notes,
	}
}

// E13RemoteAccess quantifies §3.2.4's inter-region trade-off: "a user can
// remotely access his old region ... but remote access is usually slow and
// imposes large overhead", so "obtaining a new name for a user who plans to
// move for a long time may place less overhead on the system". Remote-access
// cost grows linearly with the number of mail checks; migration (rename +
// redirect) is a one-time cost.
func E13RemoteAccess() Result {
	// Build the Figure 1 region as a location-independent system plus a
	// distant access point two extra hops away (the "other region" node the
	// mover reads mail from).
	ex := graph.Figure1()
	far := graph.NodeID(900)
	relay := graph.NodeID(901)
	ex.G.MustAddNode(graph.Node{ID: relay, Label: "GW", Region: "R2", Kind: graph.KindRouter})
	ex.G.MustAddNode(graph.Node{ID: far, Label: "FAR", Region: "R2", Kind: graph.KindHost})
	ex.G.MustAddEdge(ex.Servers[2], relay, 2)
	ex.G.MustAddEdge(relay, far, 2)
	users := map[graph.NodeID][]string{
		ex.Hosts[0]: {"mover"},
		ex.Hosts[1]: {"sender"},
	}
	s, err := core.NewLocation(core.LocationConfig{
		Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 91,
	})
	if err != nil {
		panic(err)
	}
	mover := names.MustParse("R1.H1.mover")
	sender, _ := s.Agent(names.MustParse("R1.H2.sender"))
	agent, _ := s.Agent(mover)

	// One-time migration cost: the measured rename + redirect traffic of
	// the E8 scenario, plus §3.1.4's requirement that "the senders are
	// notified about the name changes" — one round trip to each of the
	// mover's correspondents (20 here, at the region's mean path cost).
	migrationCost := measureMigrationCost()
	const correspondents = 20
	meanPath := meanPathCost(ex.G, ex.Hosts[0])
	migrationCost += correspondents * 2 * meanPath

	t := obs.NewTable(
		fmt.Sprintf("E13: remote access vs migration (remote factor %d×, one-time migration cost %.1f)",
			locind.RemoteAccessFactor, migrationCost),
		"MailChecks", "CumulativeRemoteCost", "CheaperOption")
	cum := 0.0
	crossover := -1
	for n := 1; n <= 24; n++ {
		if err := sender.Send([]names.Name{mover}, "m", "b"); err != nil {
			panic(err)
		}
		s.Run()
		_, cost := agent.RemoteGetMail(far)
		cum += cost
		if n == 1 || n == 2 || n == 4 || n == 8 || n == 16 || n == 24 {
			opt := "remote access"
			if cum > migrationCost {
				opt = "migrate (rename)"
			}
			t.AddRow(n, cum, opt)
		}
		if crossover < 0 && cum > migrationCost {
			crossover = n
		}
	}
	notes := []string{
		fmt.Sprintf("remote-access cost passes the one-time migration cost after %d mail checks", crossover),
		"§3.2.4: renaming 'may place less overhead on the system' for long-term moves — quantified",
	}
	if agent.Inbox() == nil || len(agent.Inbox()) != 24 {
		notes = append(notes, "WARNING: remote retrieval lost mail")
	}
	return Result{
		ID:    "e13",
		Title: "Inter-region movement: remote access vs renaming (§3.2.4)",
		Table: t,
		Notes: notes,
	}
}

// meanPathCost is the mean shortest-path cost from a node to every other
// node — the expected one-way cost of notifying a random correspondent.
func meanPathCost(g *graph.Graph, from graph.NodeID) float64 {
	paths, err := g.ShortestPaths(from)
	if err != nil {
		panic(err)
	}
	total, n := 0.0, 0
	for id, d := range paths.Dist {
		if id == from {
			continue
		}
		total += d
		n++
	}
	return total / float64(n)
}

// measureMigrationCost runs the E8 syntax-directed migration scenario and
// returns the network cost it incurred (directory/redirect traffic).
func measureMigrationCost() float64 {
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
	s, err := core.NewSyntax(core.SyntaxConfig{Topology: g, UsersPerHost: users, Seed: 92})
	if err != nil {
		panic(err)
	}
	before := s.Net.Stats().Get("cost_milli")
	old := names.MustParse("R1.H1.mover")
	newName, err := s.MigrateUser(old, h7)
	if err != nil {
		panic(err)
	}
	// Five straggler messages to the old name ride the redirect.
	sender := names.MustParse("R1.H2.sender")
	for i := 0; i < 5; i++ {
		if err := s.Send(sender, []names.Name{old}, "follow", "b"); err != nil {
			panic(err)
		}
	}
	s.Run()
	agent, _ := s.Agent(newName)
	agent.GetMail()
	return float64(s.Net.Stats().Get("cost_milli")-before) / 1000
}

// E14ConnectionSetup quantifies §3.1.2a's trade-off between the two
// connection-setup schemes: locally maintained authority lists ("large
// overhead in maintaining the authority server list ... the lists still
// need to be updated when there are changes in system configurations")
// versus querying a name server per connection ("the problem is shifted to
// locating a name server").
func E14ConnectionSetup() Result {
	const (
		users     = 6
		reconfigs = 10
	)
	t := obs.NewTable("E14: connection setup — maintained lists vs name-server queries (6 users, 10 reconfigurations)",
		"Connects/Reconfig", "LocalPushCost", "NameServerQueryCost", "Cheaper")
	notes := []string{}
	for _, connects := range []int{0, 1, 5, 20} {
		localCost := connectionSetupRun(connects, false)
		nsCost := connectionSetupRun(connects, true)
		cheaper := "maintained lists"
		if nsCost < localCost {
			cheaper = "name server"
		}
		t.AddRow(connects, localCost, nsCost, cheaper)
	}
	notes = append(notes,
		"maintained lists pay per reconfiguration; name-server mode pays per connection",
		"rarely-connecting users favour the name server; busy users favour the local list — the §3.1.2a trade-off")
	return Result{
		ID:    "e14",
		Title: "Connection setup: list maintenance vs name-server queries (§3.1.2a)",
		Table: t,
		Notes: notes,
	}
}

// connectionSetupRun drives six agents on the rig's host HA through ten
// reconfigurations of a two-server rig and returns the list-management
// traffic cost of the chosen mode.
func connectionSetupRun(connectsPerReconfig int, nameServerMode bool) float64 {
	f, servers := newRig(2, 7)
	dir, _ := f.Directory("R1")
	s1, s2 := servers[0], servers[1]
	lists := [][]graph.NodeID{{s1, s2}, {s2, s1}}
	agents := make([]*client.Agent, 0, 6)
	for i := 0; i < 6; i++ {
		a := register(f, fmt.Sprintf("R1.HA.u%d", i), rigHA, lists[0])
		if nameServerMode {
			if err := a.UseNameServers(servers); err != nil {
				panic(err)
			}
		}
		agents = append(agents, a)
	}
	pushRT := 2.0 // round trip host↔nearest server for one list push
	totalCost := 0.0
	for r := 0; r < 10; r++ {
		// Reconfiguration: the authority order flips; the directory is
		// updated in place (name-server mode reads it fresh); local mode
		// pushes the new list to every agent.
		list := lists[(r+1)%2]
		for _, a := range agents {
			if err := dir.SetAuthority(a.User(), list); err != nil {
				panic(err)
			}
			if !nameServerMode {
				if err := a.SetAuthority(list); err != nil {
					panic(err)
				}
				totalCost += pushRT
			}
		}
		for c := 0; c < connectsPerReconfig; c++ {
			for _, a := range agents {
				if _, err := a.Connect(); err != nil {
					panic(err)
				}
			}
		}
	}
	if nameServerMode {
		for _, a := range agents {
			totalCost += a.Stats().ListCost
		}
	}
	return totalCost
}
