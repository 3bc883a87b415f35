package client

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

const (
	h1 graph.NodeID = 1
	h2 graph.NodeID = 2
	s1 graph.NodeID = 101
	s2 graph.NodeID = 102
	s3 graph.NodeID = 201
)

var (
	alice = names.MustParse("R1.h1.alice")
	carol = names.MustParse("R1.h1.carol")
	bob   = names.MustParse("R2.h2.bob")
)

type world struct {
	sched   *sim.Scheduler
	net     *netsim.Network
	servers map[graph.NodeID]*server.Server
	hosts   map[graph.NodeID]*Host
	agents  map[string]*Agent
	dir     *server.Directory // R1's directory
}

// newWorld: R1 = {H1, S1, S2}, R2 = {H2, S3}; alice/carol on H1 with
// authority [S1, S2]; bob on H2 with authority [S3].
func newWorld(t *testing.T) *world {
	t.Helper()
	g := graph.New()
	g.MustAddNode(graph.Node{ID: h1, Label: "H1", Region: "R1", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: h2, Label: "H2", Region: "R2", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: s1, Label: "S1", Region: "R1", Kind: graph.KindServer})
	g.MustAddNode(graph.Node{ID: s2, Label: "S2", Region: "R1", Kind: graph.KindServer})
	g.MustAddNode(graph.Node{ID: s3, Label: "S3", Region: "R2", Kind: graph.KindServer})
	g.MustAddEdge(h1, s1, 1)
	g.MustAddEdge(s1, s2, 1)
	g.MustAddEdge(s2, s3, 2)
	g.MustAddEdge(h2, s3, 1)

	sched := sim.New(11)
	net := netsim.New(sched, g)
	net.AfterRecycle(poisonPayload) // every test of this world runs on scribbled boxes
	w := &world{
		sched:   sched,
		net:     net,
		servers: make(map[graph.NodeID]*server.Server),
		hosts:   make(map[graph.NodeID]*Host),
		agents:  make(map[string]*Agent),
	}
	dirR1 := server.NewDirectory("R1")
	dirR2 := server.NewDirectory("R2")
	w.dir = dirR1
	regions := server.NewRegionMap()
	for _, spec := range []struct {
		id     graph.NodeID
		region string
		dir    *server.Directory
	}{{s1, "R1", dirR1}, {s2, "R1", dirR1}, {s3, "R2", dirR2}} {
		srv, err := server.New(server.Config{
			ID: spec.id, Region: spec.region, Net: net, Dir: spec.dir, Regions: regions,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.servers[spec.id] = srv
	}
	if err := dirR1.SetAuthority(alice, []graph.NodeID{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if err := dirR1.SetAuthority(carol, []graph.NodeID{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if err := dirR2.SetAuthority(bob, []graph.NodeID{s3}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.NodeID{h1, h2} {
		host, err := NewHost(net, id)
		if err != nil {
			t.Fatal(err)
		}
		w.hosts[id] = host
	}
	lookup := func(id graph.NodeID) *server.Server { return w.servers[id] }
	mk := func(u names.Name, host graph.NodeID, auth []graph.NodeID) {
		a, err := NewAgent(u, w.hosts[host], lookup, auth)
		if err != nil {
			t.Fatal(err)
		}
		w.agents[u.User] = a
	}
	mk(alice, h1, []graph.NodeID{s1, s2})
	mk(carol, h1, []graph.NodeID{s1, s2})
	mk(bob, h2, []graph.NodeID{s3})
	return w
}

func TestNewAgentValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := NewAgent(alice, nil, nil, []graph.NodeID{s1}); !errors.Is(err, ErrNotAttached) {
		t.Errorf("nil host err = %v", err)
	}
	if _, err := NewAgent(alice, w.hosts[h1], nil, nil); err == nil {
		t.Error("empty authority list accepted")
	}
}

func TestSendAndReceive(t *testing.T) {
	w := newWorld(t)
	srv, err := w.agents["carol"].Send([]names.Name{alice}, "hi", "body")
	if err != nil {
		t.Fatal(err)
	}
	if srv != s1 {
		t.Errorf("submitted via %d, want first authority server %d", srv, s1)
	}
	w.sched.Run()
	got := w.agents["alice"].GetMail()
	if len(got) != 1 || got[0].Subject != "hi" {
		t.Fatalf("GetMail = %v", got)
	}
	if len(w.hosts[h1].Acks()) != 1 {
		t.Error("submission ack not received at host")
	}
	if len(w.agents["alice"].Inbox()) != 1 {
		t.Error("inbox not updated")
	}
}

// The headline claim (§5): "the number of polls per retrieval request is
// approximately one under normal conditions" — after the cold-start check,
// every failure-free GetMail must poll exactly one server.
func TestGetMailSinglePollSteadyState(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	w.sched.RunUntil(10 * sim.Unit)
	a.GetMail() // cold start: LastCheckingTime(0) ≤ LastStartTime(0) everywhere
	coldPolls := a.Stats().Polls
	if coldPolls != 2 {
		t.Errorf("cold-start polls = %d, want 2 (both authority servers)", coldPolls)
	}
	for i := 0; i < 5; i++ {
		w.agents["carol"].Send([]names.Name{alice}, "s", "b")
		w.sched.Run()
		got := a.GetMail()
		if len(got) != 1 {
			t.Fatalf("round %d: got %d messages, want 1", i, len(got))
		}
	}
	if got := a.Stats().Polls - coldPolls; got != 5 {
		t.Errorf("steady-state polls = %d over 5 retrievals, want 5 (≈1 per retrieval)", got)
	}
}

// PollAll must contact every authority server on every retrieval.
func TestPollAllBaseline(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	for i := 0; i < 3; i++ {
		w.sched.RunFor(sim.Unit)
		a.PollAll()
	}
	if got := a.Stats().Polls; got != 6 {
		t.Errorf("PollAll polls = %d over 3 retrievals of 2 servers, want 6", got)
	}
}

// Primary fails: mail must land on and be retrieved from the secondary, with
// the primary remembered as previously unavailable.
func TestGetMailPrimaryDown(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	w.sched.RunUntil(5 * sim.Unit)
	a.GetMail() // warm up
	w.net.Crash(s1)
	w.agents["bob"].Send([]names.Name{alice}, "via-s2", "b")
	w.sched.Run()
	if w.servers[s2].MailboxLen(alice) != 1 {
		t.Fatal("mail did not land at secondary")
	}
	got := a.GetMail()
	if len(got) != 1 {
		t.Fatalf("retrieved %d messages, want 1", len(got))
	}
	pus := a.PreviouslyUnavailable()
	if len(pus) != 1 || pus[0] != s1 {
		t.Errorf("PreviouslyUnavailableServers = %v, want [S1]", pus)
	}
}

// Old mail stranded on a failed-then-recovered primary must be collected on
// the next check, and the recovered server's fresh LastStartTime must force
// the walk to continue to the secondary.
func TestGetMailRecoveredPrimaryYieldsStrandedMail(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	w.sched.RunUntil(2 * sim.Unit)
	a.GetMail()

	// Mail lands on S1, then S1 crashes before alice checks.
	w.agents["carol"].Send([]names.Name{alice}, "stranded", "b")
	w.sched.Run()
	w.net.Crash(s1)
	// New mail lands on S2 while S1 is down.
	w.agents["bob"].Send([]names.Name{alice}, "fresh", "b")
	w.sched.Run()
	// Check while S1 down: gets "fresh" from S2, remembers S1.
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "fresh" {
		t.Fatalf("while primary down got %v", got)
	}
	// S1 recovers, still holding "stranded".
	w.net.Recover(s1)
	w.sched.RunFor(sim.Unit)
	got = a.GetMail()
	if len(got) != 1 || got[0].Subject != "stranded" {
		t.Fatalf("after recovery got %v, want the stranded message", got)
	}
	// That check had to visit both servers: S1 restarted after the last
	// check, so the walk cannot stop there.
	if len(a.PreviouslyUnavailable()) != 0 {
		t.Errorf("PUS not cleared: %v", a.PreviouslyUnavailable())
	}
}

func TestConnectSkipsDownServers(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	w.net.Crash(s1)
	srv, err := a.Connect()
	if err != nil || srv != s2 {
		t.Errorf("Connect = %v, %v; want S2", srv, err)
	}
	if a.Stats().FailedProbes != 1 {
		t.Errorf("FailedProbes = %d, want 1", a.Stats().FailedProbes)
	}
	w.net.Crash(s2)
	if _, err := a.Connect(); !errors.Is(err, ErrNoServerAvailable) {
		t.Errorf("all-down Connect err = %v", err)
	}
	if _, err := a.Send([]names.Name{bob}, "s", "b"); !errors.Is(err, ErrNoServerAvailable) {
		t.Errorf("all-down Send err = %v", err)
	}
}

func TestLoginNotification(t *testing.T) {
	w := newWorld(t)
	b := w.agents["bob"]
	if err := b.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	w.agents["alice"].Send([]names.Name{bob}, "ping", "b")
	w.sched.Run()
	if n := b.Notifications(); len(n) != 1 || n[0].User != bob {
		t.Fatalf("notifications = %v", n)
	}
	if err := b.Logout(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	w.agents["alice"].Send([]names.Name{bob}, "ping2", "b")
	w.sched.Run()
	if len(b.Notifications()) != 1 {
		t.Error("notified after logout")
	}
}

func TestDuplicateSuppressionAcrossServers(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	// Force the same message into both servers' mailboxes (as a retried
	// transfer could); the agent must deliver it once.
	m := mail.Message{ID: mail.MessageID{Node: 77, Seq: 1}, From: bob, To: []names.Name{alice}, Subject: "dup"}
	for _, sid := range []graph.NodeID{s1, s2} {
		if err := w.net.Send(h2, sid, new(netsim.FreeList[server.Transfer]).Box(server.Transfer{
			Kind: server.TransferDeposit, Msg: m, Recipient: alice, Origin: h2, Token: uint64(sid),
		})); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.Run()
	got := a.PollAll()
	if len(got) != 1 {
		t.Fatalf("received %d copies, want 1", len(got))
	}
	if a.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", a.Stats().Duplicates)
	}
}

func TestSetAuthority(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	if err := a.SetAuthority(nil); err == nil {
		t.Error("empty SetAuthority accepted")
	}
	if err := a.SetAuthority([]graph.NodeID{s2, s1}); err != nil {
		t.Fatal(err)
	}
	if got := a.Authority(); got[0] != s2 {
		t.Errorf("Authority = %v", got)
	}
}

func TestPollCostAccounting(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	a.GetMail() // cold start polls S1 (cost 1) and S2 (cost 2), round trips
	if got := a.Stats().PollCost; got != 2*(1+2) {
		t.Errorf("PollCost = %v, want 6", got)
	}
}

// No-loss property (§5, validated further in internal/experiments): under a
// randomized crash/recovery schedule with retries enabled, every submitted
// message is retrieved exactly once after the system settles.
func TestNoLossUnderRandomFailures(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := newWorld(t)
		rng := rand.New(rand.NewSource(seed))
		a := w.agents["alice"]
		sent := 0
		for round := 0; round < 20; round++ {
			// Randomly toggle R1 servers, but keep at least one up so the
			// paper's liveness assumption holds.
			for _, sid := range []graph.NodeID{s1, s2} {
				if rng.Intn(3) == 0 {
					w.net.Crash(sid)
				} else {
					w.net.Recover(sid)
				}
			}
			if !w.net.IsUp(s1) && !w.net.IsUp(s2) {
				w.net.Recover(s1)
			}
			if _, err := w.agents["bob"].Send([]names.Name{alice}, "r", "b"); err == nil {
				sent++
			}
			w.sched.RunFor(20 * sim.Unit)
			a.GetMail()
		}
		w.net.Recover(s1)
		w.net.Recover(s2)
		w.sched.RunFor(200 * sim.Unit)
		w.sched.Run()
		a.GetMail()
		a.GetMail() // second pass clears any PreviouslyUnavailable stragglers
		if got := a.Stats().Received; got != sent {
			t.Errorf("seed %d: received %d of %d messages", seed, got, sent)
		}
	}
}

func TestNameServerMode(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	if err := a.UseNameServers(nil); err == nil {
		t.Error("empty name-server list accepted")
	}
	if err := a.UseNameServers([]graph.NodeID{s2, s1}); err != nil {
		t.Fatal(err)
	}
	// The directory changes behind the agent's back; name-server mode
	// picks it up without a push.
	dir := w.dir
	if err := dir.SetAuthority(alice, []graph.NodeID{s2, s1}); err != nil {
		t.Fatal(err)
	}
	srv, err := a.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if srv != s2 {
		t.Errorf("Connect = %v, want s2 (fresh list from name server)", srv)
	}
	if a.Stats().ListQueries == 0 {
		t.Error("no name-server queries counted")
	}
	if a.Stats().ListCost <= 0 {
		t.Error("no name-server cost accounted")
	}
	// Name server down: falls to the next, then to the stale local list.
	w.net.Crash(s2)
	w.net.Crash(s1)
	if _, err := a.Connect(); err == nil {
		t.Error("all servers down but Connect succeeded")
	}
	w.net.Recover(s1)
	if _, err := a.Connect(); err != nil {
		t.Errorf("Connect with one name server up: %v", err)
	}
}

func TestLocalModeCountsUpdates(t *testing.T) {
	w := newWorld(t)
	a := w.agents["alice"]
	if err := a.SetAuthority([]graph.NodeID{s2, s1}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAuthority([]graph.NodeID{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().ListUpdates; got != 2 {
		t.Errorf("ListUpdates = %d, want 2", got)
	}
}
