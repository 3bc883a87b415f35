package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// twoRegionTopology builds the Figure 1 region (R1: H1..H6, S1..S3) plus a
// second region R2 with one host H7 and one server S4, joined S3-S4.
func twoRegionTopology() (*graph.Graph, map[graph.NodeID][]string) {
	ex := graph.Figure1()
	g := ex.G
	h7 := graph.HostBase + 7
	s4 := graph.ServerBase + 4
	g.MustAddNode(graph.Node{ID: h7, Label: "H7", Region: "R2", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: s4, Label: "S4", Region: "R2", Kind: graph.KindServer})
	g.MustAddEdge(s4, ex.Servers[2], 2)
	g.MustAddEdge(h7, s4, 1)

	users := make(map[graph.NodeID][]string)
	for i, h := range ex.Hosts {
		for u := 0; u < 3; u++ {
			users[h] = append(users[h], fmt.Sprintf("u%d_%d", i+1, u))
		}
	}
	users[h7] = []string{"remote0", "remote1"}
	return g, users
}

func newSyntaxWorld(t *testing.T) *SyntaxSystem {
	t.Helper()
	g, users := twoRegionTopology()
	s, err := NewSyntax(SyntaxConfig{Topology: g, UsersPerHost: users, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSyntaxValidation(t *testing.T) {
	if _, err := NewSyntax(SyntaxConfig{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestSyntaxRoundTrip(t *testing.T) {
	s := newSyntaxWorld(t)
	if got := len(s.Users()); got != 20 {
		t.Fatalf("users = %d, want 20", got)
	}
	from := names.MustParse("R1.H1.u1_0")
	to := names.MustParse("R1.H2.u2_0")
	if err := s.Send(from, []names.Name{to}, "hi", "body"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	a, err := s.Agent(to)
	if err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "hi" {
		t.Fatalf("GetMail = %v", got)
	}
}

func TestSyntaxCrossRegion(t *testing.T) {
	s := newSyntaxWorld(t)
	from := names.MustParse("R1.H1.u1_0")
	to := names.MustParse("R2.H7.remote0")
	if err := s.Send(from, []names.Name{to}, "xr", "b"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	a, _ := s.Agent(to)
	if got := a.GetMail(); len(got) != 1 {
		t.Fatalf("cross-region GetMail = %v", got)
	}
}

func TestSyntaxUnknownUser(t *testing.T) {
	s := newSyntaxWorld(t)
	if _, err := s.Agent(names.MustParse("R1.H1.nosuch")); err == nil {
		t.Error("unknown agent returned")
	}
	if err := s.Send(names.MustParse("R1.H1.nosuch"), nil, "s", "b"); err == nil {
		t.Error("send from unknown user accepted")
	}
}

func TestSyntaxMigration(t *testing.T) {
	s := newSyntaxWorld(t)
	old := names.MustParse("R1.H1.u1_0")
	h7 := graph.HostBase + 7
	newName, err := s.MigrateUser(old, h7)
	if err != nil {
		t.Fatal(err)
	}
	if newName.Region != "R2" || newName.Host != "H7" || newName.User != "u1_0" {
		t.Errorf("new name = %v", newName)
	}
	if _, err := s.Agent(old); err == nil {
		t.Error("old agent still present")
	}
	// Mail to the OLD name is redirected to the new location (§3.1.4).
	sender := names.MustParse("R1.H2.u2_0")
	if err := s.Send(sender, []names.Name{old}, "follow", "b"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	a, err := s.Agent(newName)
	if err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "follow" {
		t.Fatalf("redirected mail = %v", got)
	}
	if a.User() != newName {
		t.Errorf("moved agent is %v, want the new name %v", a.User(), newName)
	}
	// Migration validation failures.
	if _, err := s.MigrateUser(names.MustParse("R1.H1.ghost"), h7); err == nil {
		t.Error("migrating unknown user accepted")
	}
	if _, err := s.MigrateUser(newName, 9999); err == nil {
		t.Error("migrating to unknown node accepted")
	}
	if _, err := s.MigrateUser(newName, graph.ServerBase+1); err == nil {
		t.Error("migrating to a server node accepted")
	}
}

// TestSyntaxMigrateWithMailInFlight: a message on its way to the old name when
// the user moves reaches them — drained into the old agent's inbox before the
// handover, or redirected to the new name after it — and no copy is left in an
// old-name mailbox, which no agent polls again. Before the fabric quiesced the
// simulator ahead of the drain, 12 of these 84 cases deposited under the old
// name after it (sent 1–1.5 units before the move) and stayed there.
func TestSyntaxMigrateWithMailInFlight(t *testing.T) {
	h7 := graph.HostBase + 7
	delays := []sim.Time{sim.Unit / 2, sim.Unit, 3 * sim.Unit / 2, 2 * sim.Unit, 5 * sim.Unit / 2, 3 * sim.Unit, 4 * sim.Unit}
	for _, to := range []string{"R1.H1.u1_0", "R1.H3.u3_1", "R1.H5.u5_2", "R1.H6.u6_0"} {
		for _, from := range []string{"R1.H2.u2_0", "R1.H4.u4_0", "R2.H7.remote0"} {
			for _, delay := range delays {
				s := newSyntaxWorld(t)
				old := names.MustParse(to)
				if err := s.Send(names.MustParse(from), []names.Name{old}, "in flight", "b"); err != nil {
					t.Fatal(err)
				}
				s.RunFor(delay)
				oldAgent, _ := s.Agent(old)
				newName, err := s.MigrateUser(old, h7)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				newAgent, _ := s.Agent(newName)
				if got := len(oldAgent.Inbox()) + len(newAgent.GetMail()); got != 1 {
					t.Errorf("%s → %s, moved %v after the send: user holds %d copies, want 1", from, to, delay, got)
				}
				for _, id := range s.Servers() {
					srv, _ := s.Server(id)
					if n := srv.MailboxLen(old); n != 0 {
						t.Errorf("%s → %s, moved %v after the send: %d stranded under the old name on server %d", from, to, delay, n, id)
					}
				}
			}
		}
	}
}

func TestSyntaxAddServer(t *testing.T) {
	s := newSyntaxWorld(t)
	g := s.cfg.Topology
	s5 := graph.ServerBase + 5
	g.MustAddNode(graph.Node{ID: s5, Label: "S5", Region: "R1", Kind: graph.KindServer})
	g.MustAddEdge(s5, graph.ServerBase+1, 1)
	// The network topology was cloned; wire the node there too.
	s.Net.Topology().MustAddNode(graph.Node{ID: s5, Label: "S5", Region: "R1", Kind: graph.KindServer})
	if err := s.Net.RestoreLink(s5, graph.ServerBase+1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddServer(s5, "R1", 50); err != nil {
		t.Fatal(err)
	}
	if err := s.AddServer(s5, "R1", 50); err == nil {
		t.Error("duplicate AddServer accepted")
	}
	if err := s.AddServer(8888, "R9", 50); err == nil {
		t.Error("unknown region accepted")
	}
	// Mail still flows after reconfiguration.
	from := names.MustParse("R1.H1.u1_0")
	to := names.MustParse("R1.H6.u6_0")
	if err := s.Send(from, []names.Name{to}, "post-reconfig", "b"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	a, _ := s.Agent(to)
	if got := a.GetMail(); len(got) != 1 {
		t.Fatalf("delivery after AddServer = %v", got)
	}
	// The §3.1.3 refresh gave every R1 user the recomputed list, in the
	// directory and in the agent, and S5 serves some of them.
	dir, _ := s.Directory("R1")
	onS5 := 0
	for _, u := range s.Users() {
		if u.Region != "R1" {
			continue
		}
		a, _ := s.Agent(u)
		want := s.Lists()[s.hostOf[u]]
		if !slices.Equal(dir.Resolve(u), want) || !slices.Equal(a.Authority(), want) {
			t.Errorf("%v: directory %v, agent %v, want the refreshed list %v", u, dir.Resolve(u), a.Authority(), want)
		}
		if slices.Contains(want, s5) {
			onS5++
		}
	}
	if onS5 == 0 {
		t.Error("no R1 list names the added server")
	}
}

// TestSyntaxDeliveryCounts: five messages, each retrieved at once, are five
// deposits, one poll per retrieval, and traffic on the network.
func TestSyntaxDeliveryCounts(t *testing.T) {
	s := newSyntaxWorld(t)
	from := names.MustParse("R1.H1.u1_0")
	to := names.MustParse("R1.H3.u3_1")
	for i := 0; i < 5; i++ {
		if err := s.Send(from, []names.Name{to}, "s", "b"); err != nil {
			t.Fatal(err)
		}
		s.Run()
		a, _ := s.Agent(to)
		a.GetMail()
	}
	a, _ := s.Agent(to)
	if st := a.Stats(); st.Received != 5 || st.Retrievals != 5 {
		t.Errorf("agent received %d in %d retrievals, want 5 in 5", st.Received, st.Retrievals)
	} else if st.Polls < st.Retrievals || st.Polls > st.Retrievals+len(a.Authority()) {
		t.Errorf("%d polls for %d retrievals", st.Polls, st.Retrievals)
	}
	var deposits int64
	for _, id := range s.Servers() {
		deposits += s.Lookup(id).Stats().Get("deposits_local")
	}
	if deposits != 5 {
		t.Errorf("servers deposited %d copies, want 5", deposits)
	}
	if net := s.Net.Stats(); net.Get("delivered") == 0 || net.Get("cost_milli") == 0 {
		t.Errorf("network carried %d messages at cost %d", net.Get("delivered"), net.Get("cost_milli"))
	}
}

// ---- location-independent ----

func singleRegionTopology() (*graph.Graph, map[graph.NodeID][]string) {
	ex := graph.Figure1()
	users := make(map[graph.NodeID][]string)
	for i, h := range ex.Hosts {
		users[h] = []string{fmt.Sprintf("w%d", i+1)}
	}
	return ex.G, users
}

func newLocationWorld(t *testing.T) *LocationSystem {
	t.Helper()
	g, users := singleRegionTopology()
	s, err := NewLocation(LocationConfig{Topology: g, Region: "R1", UsersPerHost: users, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocationRoundTripAndRoam(t *testing.T) {
	s := newLocationWorld(t)
	if got := len(s.agents); got != 6 {
		t.Fatalf("users = %d, want 6", got)
	}
	if _, err := s.Agent(names.MustParse("R9.h.x")); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("phantom agent: %v", err)
	}
	w1 := names.MustParse("R1.H1.w1")
	w2 := names.MustParse("R1.H2.w2")
	a1, err := s.Agent(w1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := s.Agent(w2)

	// w1 roams to H6 — no rename — and still gets mail and alerts.
	if err := s.MigrateUser(w1, graph.HostBase+6); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if a1.AtPrimary() {
		t.Error("agent still at primary after migration")
	}
	if err := a2.Send([]names.Name{w1}, "roam", "b"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := a1.GetMail(); len(got) != 1 {
		t.Fatalf("roaming GetMail = %v", got)
	}
	if len(a1.Notifications()) != 1 {
		t.Errorf("roaming notifications = %v", a1.Notifications())
	}
	if a1.User() != w1 {
		t.Errorf("roamed agent is %v, want its name %v kept", a1.User(), w1)
	}
	// One deposit, a GetMail that polls the whole list, and network traffic.
	var deposits int64
	for _, n := range s.Net.Topology().NodesInRegion("R1") {
		if srv, ok := s.Sys.Server(n.ID); ok {
			deposits += srv.Stats().Get("deposits_local")
		}
	}
	if deposits != 1 {
		t.Errorf("servers deposited %d copies, want 1", deposits)
	}
	if a1.Polls() < 2 {
		t.Errorf("the one GetMail polled %d servers, want the whole list", a1.Polls())
	}
	if net := s.Net.Stats(); net.Get("delivered") == 0 || net.Get("cost_milli") == 0 {
		t.Errorf("network carried %d messages at cost %d", net.Get("delivered"), net.Get("cost_milli"))
	}
	if err := s.MigrateUser(names.MustParse("R1.H1.ghost"), graph.HostBase+2); err == nil {
		t.Error("migrating unknown user accepted")
	}
}

// ---- attribute-based ----

func attributeWorld(t *testing.T) *AttributeSystem {
	t.Helper()
	g := graph.New()
	regions := []string{"A", "A", "B", "B", "C"}
	for i := 1; i <= 5; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: regions[i-1]})
	}
	weights := []float64{1, 4, 2, 6}
	for i := 1; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), weights[i-1])
	}
	profiles := make(map[graph.NodeID][]*attr.Profile)
	for i := 1; i <= 5; i++ {
		p := &attr.Profile{User: names.MustParse(fmt.Sprintf("r%d.h.user%d", i, i))}
		p.Add(attr.TypeExpertise, "mail systems", attr.Public)
		if i%2 == 0 {
			p.Add(attr.TypeOrganization, "acme", attr.Public)
		}
		profiles[graph.NodeID(i)] = []*attr.Profile{p}
	}
	s, err := NewAttribute(AttributeConfig{Topology: g, Profiles: profiles, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAttributeSearch(t *testing.T) {
	s := attributeWorld(t)
	q := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}
	res, err := s.Search(1, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 || res.NodesSearched != 5 {
		t.Fatalf("full search = %+v", res)
	}
	sel := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeOrganization, Op: attr.OpEquals, Pattern: "acme"}}}
	res, err = s.Search(1, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Errorf("selective search matches = %v", res.Matches)
	}
	if _, err := s.Search(1, attr.Query{}, nil); err == nil {
		t.Error("empty query accepted")
	}
}

func TestAttributeTargetedSearch(t *testing.T) {
	s := attributeWorld(t)
	q := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}
	res, err := s.Search(1, q, map[string]bool{"A": true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesSearched != 2 {
		t.Errorf("targeted search touched %d nodes, want 2", res.NodesSearched)
	}
}

func TestAttributeFloodCostlier(t *testing.T) {
	s := attributeWorld(t)
	q := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}
	tree, err := s.Search(3, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	flood, err := s.FloodSearch(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(flood.Matches) != len(tree.Matches) {
		t.Errorf("flood found %d, tree found %d", len(flood.Matches), len(tree.Matches))
	}
	if flood.TrafficCost <= tree.TrafficCost {
		t.Errorf("flood cost %v not above tree cost %v", flood.TrafficCost, tree.TrafficCost)
	}
}

func TestAttributeMassMailBudget(t *testing.T) {
	s := attributeWorld(t)
	q := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpPrefix, Pattern: "mail"}}}
	rows, err := s.CostTable("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("cost table rows = %+v", rows)
	}
	// Budget that affords only the cheapest region(s).
	res, estimate, err := s.MassMail(1, "A", q, rows[0].Total+0.5)
	if err != nil {
		t.Fatal(err)
	}
	if estimate <= 0 || len(res.Matches) == 0 {
		t.Errorf("mass mail = %+v, estimate %v", res, estimate)
	}
	if len(res.Matches) >= 5 {
		t.Error("tiny budget reached every region")
	}
	if _, _, err := s.MassMail(1, "A", q, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := s.CostTable("Z"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestSyntaxAccessors(t *testing.T) {
	s := newSyntaxWorld(t)
	servers := s.Servers()
	if len(servers) != 4 {
		t.Fatalf("Servers = %v", servers)
	}
	if _, ok := s.Server(servers[0]); !ok {
		t.Error("Server lookup failed")
	}
	if _, ok := s.Server(9999); ok {
		t.Error("phantom server")
	}
	if _, ok := s.Assignment("R1"); !ok {
		t.Error("Assignment lookup failed")
	}
	if _, ok := s.Assignment("R9"); ok {
		t.Error("phantom assignment")
	}
	if d, ok := s.Directory("R1"); !ok || d.Region() != "R1" {
		t.Error("Directory lookup failed")
	}
	s.RunFor(10)
}

func TestNewLocationValidation(t *testing.T) {
	if _, err := NewLocation(LocationConfig{Region: "R1"}); err == nil {
		t.Error("nil topology accepted")
	}
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1, Region: "R1", Kind: graph.KindRouter})
	if _, err := NewLocation(LocationConfig{Topology: g, Region: "R1"}); err == nil {
		t.Error("serverless region accepted")
	}
}

// Users returns every user, sorted by name.
func (s *SyntaxSystem) Users() []names.Name {
	out := make([]names.Name, 0, len(s.agents))
	for u := range s.agents {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}
