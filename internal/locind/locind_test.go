package locind

import (
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// Retrievals reports how many GetMail calls the agent has made.
func (a *Agent) Retrievals() int { return a.retrievals }

// Servers returns the current rotation, in authority order.
func (s *System) Servers() []graph.NodeID {
	return append([]graph.NodeID(nil), s.servers...)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// stat sums a counter over the system's own registry and every server's.
func stat(sys *System, name string) int64 {
	n := sys.Stats().Get(name)
	for _, l := range sys.procs {
		n += l.srv.Stats().Get(name)
	}
	return n
}

const (
	ha graph.NodeID = 1 // host "ha"
	hb graph.NodeID = 2 // host "hb"
	hc graph.NodeID = 3 // host "hc"
	s1 graph.NodeID = 101
	s2 graph.NodeID = 102
)

var (
	uAlice = names.MustParse("R1.ha.alice")
	uBob   = names.MustParse("R1.hb.bob")
)

type world struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	sys    *System
	alice  *Agent
	bob    *Agent
	agents map[string]*Agent
}

// newWorld: hosts ha,hb,hc and servers s1,s2 in one region, all links 1.
func newWorld(t *testing.T, subgroups int) *world {
	t.Helper()
	g := graph.New()
	for _, n := range []struct {
		id    graph.NodeID
		label string
		kind  graph.Kind
	}{
		{ha, "ha", graph.KindHost}, {hb, "hb", graph.KindHost}, {hc, "hc", graph.KindHost},
		{s1, "S1", graph.KindServer}, {s2, "S2", graph.KindServer},
	} {
		g.MustAddNode(graph.Node{ID: n.id, Label: n.label, Region: "R1", Kind: n.kind})
	}
	g.MustAddEdge(ha, s1, 1)
	g.MustAddEdge(hb, s1, 2)
	g.MustAddEdge(hc, s2, 1)
	g.MustAddEdge(s1, s2, 1)

	sched := sim.New(13)
	net := netsim.New(sched, g)
	net.AfterRecycle(poisonPayload) // every test of this world runs on scribbled boxes
	sys, err := NewSystem(Config{
		Region: "R1", Net: net,
		Servers:   []graph.NodeID{s1, s2},
		Subgroups: subgroups,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		tok string
		id  graph.NodeID
	}{{"ha", ha}, {"hb", hb}, {"hc", hc}} {
		if _, err := sys.AddHost(h.tok, h.id); err != nil {
			t.Fatal(err)
		}
	}
	w := &world{sched: sched, net: net, sys: sys, agents: make(map[string]*Agent)}
	w.alice = mustAgent(t, sys, uAlice)
	w.bob = mustAgent(t, sys, uBob)
	return w
}

func mustAgent(t *testing.T, sys *System, u names.Name) *Agent {
	t.Helper()
	a, err := sys.NewAgent(u)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("nil net accepted")
	}
	g := graph.New()
	net := netsim.New(sim.New(1), g)
	if _, err := NewSystem(Config{Net: net, Region: "R1"}); err != ErrNoServers {
		t.Errorf("no servers err = %v", err)
	}
}

func TestAuthorityStableUnderRoaming(t *testing.T) {
	w := newWorld(t, 4)
	home := w.sys.Resolve(uAlice)
	roamed := w.sys.Resolve(names.Name{Region: "R1", Host: "hc", User: "alice"})
	if len(home) == 0 || len(home) != len(roamed) {
		t.Fatalf("authority lists: %v vs %v", home, roamed)
	}
	for i := range home {
		if home[i] != roamed[i] {
			t.Errorf("authority changed under roaming: %v vs %v", home, roamed)
		}
	}
}

func TestSendDeliverRetrieveAtPrimary(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.bob.Send([]names.Name{uAlice}, "hello", "body"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	got := w.alice.GetMail()
	if len(got) != 1 || got[0].Subject != "hello" {
		t.Fatalf("GetMail = %v", got)
	}
	// Second retrieval finds nothing new.
	if again := w.alice.GetMail(); len(again) != 0 {
		t.Errorf("duplicate retrieval: %v", again)
	}
}

func TestNotifyAtPrimaryNoConsultation(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.alice.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if err := w.bob.Send([]names.Name{uAlice}, "ping", "b"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if n := w.alice.Notifications(); len(n) != 1 {
		t.Fatalf("notifications = %v", n)
	}
	// The home case must incur zero consultations (E7's claim: "overhead
	// is only incurred if a user moves").
	if got := w.sys.Stats().Get("consultations"); got != 0 {
		t.Errorf("consultations = %d, want 0 for home user", got)
	}
}

func TestNotifyRoamingConsultsServers(t *testing.T) {
	w := newWorld(t, 4)
	// Alice roams to hc (near S2) and logs in there; S2 records her.
	if err := w.alice.MoveTo(hc); err != nil {
		t.Fatal(err)
	}
	if err := w.alice.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if w.alice.AtPrimary() {
		t.Fatal("agent still at primary")
	}
	if err := w.bob.Send([]names.Name{uAlice}, "find-me", "b"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if n := w.alice.Notifications(); len(n) != 1 {
		t.Fatalf("roaming alice got %d notifications, want 1", len(n))
	}
	// Mail is still retrievable from the (unchanged) sub-group servers.
	if got := w.alice.GetMail(); len(got) != 1 {
		t.Errorf("roaming GetMail = %v", got)
	}
}

func TestRoamingOverheadOnlyWhenRoaming(t *testing.T) {
	w := newWorld(t, 4)
	w.alice.Login()
	w.sched.Run()
	w.bob.Send([]names.Name{uAlice}, "one", "b")
	w.sched.Run()
	baseConsult := w.sys.Stats().Get("consultations")

	w.alice.MoveTo(hc)
	w.alice.Login()
	w.sched.Run()
	w.bob.Send([]names.Name{uAlice}, "two", "b")
	w.sched.Run()
	roamConsult := w.sys.Stats().Get("consultations")

	if baseConsult != 0 {
		t.Errorf("home delivery consulted %d times", baseConsult)
	}
	if roamConsult == 0 && stat(w.sys, "notifies")+stat(w.sys, "login_alerts") <= 1 {
		t.Error("roaming delivery incurred no tracking traffic at all")
	}
}

func TestOfflineUserMailWaits(t *testing.T) {
	w := newWorld(t, 4)
	// Nobody logs in; mail must wait and no notification is sent.
	w.bob.Send([]names.Name{uAlice}, "wait", "b")
	w.sched.Run()
	if got := w.sys.Stats().Get("notify_offline"); got != 1 {
		t.Errorf("notify_offline = %d, want 1", got)
	}
	if got := w.alice.GetMail(); len(got) != 1 {
		t.Errorf("offline user could not retrieve mail: %v", got)
	}
}

func TestLoginAlertsBufferedMail(t *testing.T) {
	w := newWorld(t, 4)
	w.bob.Send([]names.Name{uAlice}, "buffered", "b")
	w.sched.Run()
	// Alice logs in at the server holding her mailbox (her sub-group
	// authority head) — the alert must fire on login.
	auth := w.sys.Resolve(uAlice)
	srv, _ := w.sys.Server(auth[0])
	if srv.MailboxLen(uAlice) != 1 {
		t.Fatalf("mail not at authority head")
	}
	// Make alice's nearest server the authority head by moving her next to
	// it if needed; with our topology s1 is nearest to ha, s2 to hc.
	if auth[0] == s2 {
		w.alice.MoveTo(hc)
	}
	w.alice.Login()
	w.sched.Run()
	if len(w.alice.Notifications()) == 0 {
		t.Error("no alert on login with buffered mail")
	}
}

func TestDepositSkipsDownServer(t *testing.T) {
	w := newWorld(t, 4)
	auth := w.sys.Resolve(uAlice)
	if len(auth) < 2 {
		t.Fatalf("authority list too short: %v", auth)
	}
	w.net.Crash(auth[0])
	w.bob.Send([]names.Name{uAlice}, "failover", "b")
	w.sched.Run()
	backup, _ := w.sys.Server(auth[1])
	if backup.MailboxLen(uAlice) != 1 {
		t.Errorf("mail not at backup authority server")
	}
	w.net.Recover(auth[0])
	if got := w.alice.GetMail(); len(got) != 1 {
		t.Errorf("GetMail after failover = %v", got)
	}
}

func TestRehashMigratesMailboxes(t *testing.T) {
	w := newWorld(t, 4)
	w.bob.Send([]names.Name{uAlice}, "m1", "b")
	w.bob.Send([]names.Name{uBob}, "m2", "b")
	w.sched.Run()
	// Find a modulus under which alice's authority head changes.
	oldHead := w.sys.Resolve(uAlice)[0]
	newK := -1
	for k := 2; k < 12; k++ {
		g := uAlice.Subgroup(k)
		if w.sys.servers[g%len(w.sys.servers)] != oldHead {
			newK = k
			break
		}
	}
	if newK == -1 {
		t.Skip("no modulus changes alice's head server; hash degenerate")
	}
	// Force single-entry authority lists so a head change means migration.
	w.sys.listLen = 1
	if _, err := w.sys.Rehash(w.sys.subgroups); err != nil { // normalize under listLen=1
		t.Fatal(err)
	}
	w.sched.Run()
	moved, err := w.sys.Rehash(newK)
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if moved == 0 {
		t.Error("rehash moved no mailboxes despite head change")
	}
	// No mail lost: alice still retrieves her message.
	if got := w.alice.GetMail(); len(got) != 1 {
		t.Errorf("after rehash GetMail = %v", got)
	}
	if _, err := w.sys.Rehash(0); err == nil {
		t.Error("invalid modulus accepted")
	}
}

func TestAddServerRehashes(t *testing.T) {
	w := newWorld(t, 4)
	// Add a third server node wired into the region.
	s3 := graph.NodeID(103)
	// The network topology is cloned at netsim construction; extend the
	// network's own copy so routes exist.
	w.net.Topology().MustAddNode(graph.Node{ID: s3, Label: "S3", Region: "R1", Kind: graph.KindServer})
	if err := w.net.RestoreLink(s3, s2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.sys.AddServer(s3); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if err := w.sys.AddServer(s3); err == nil {
		t.Error("duplicate AddServer accepted")
	}
	// Some sub-group must now be served by s3.
	found := false
	for g := 0; g < w.sys.Subgroups(); g++ {
		u := names.Name{Region: "R1", Host: "ha", User: "probe"}
		_ = u
		if w.sys.servers[g%len(w.sys.servers)] == s3 {
			found = true
		}
	}
	if !found {
		t.Error("no sub-group maps to the new server")
	}
}

func TestMoveToUnknownHost(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.alice.MoveTo(9999); err == nil {
		t.Error("MoveTo unknown host accepted")
	}
}

func TestNewAgentValidation(t *testing.T) {
	w := newWorld(t, 4)
	if _, err := w.sys.NewAgent(names.MustParse("R9.ha.eve")); err == nil {
		t.Error("wrong-region agent accepted")
	}
	if _, err := w.sys.NewAgent(names.MustParse("R1.nosuch.eve")); err == nil {
		t.Error("unknown-primary agent accepted")
	}
}

func TestNoServerUp(t *testing.T) {
	w := newWorld(t, 4)
	w.net.Crash(s1)
	w.net.Crash(s2)
	if err := w.alice.Login(); err != ErrNoServerUp {
		t.Errorf("Login err = %v, want ErrNoServerUp", err)
	}
	if err := w.alice.Send([]names.Name{uBob}, "s", "b"); err != ErrNoServerUp {
		t.Errorf("Send err = %v", err)
	}
}

func TestNonLocalRecipientCounted(t *testing.T) {
	w := newWorld(t, 4)
	w.bob.Send([]names.Name{names.MustParse("R9.h.x")}, "s", "b")
	w.sched.Run()
	if got := stat(w.sys, "unroutable"); got != 1 {
		t.Errorf("unroutable = %d", got)
	}
}

func TestNearestServerPicksByCost(t *testing.T) {
	w := newWorld(t, 4)
	srv, err := w.sys.NearestServer(hc)
	if err != nil || srv != s2 {
		t.Errorf("NearestServer(hc) = %v, %v; want s2", srv, err)
	}
	w.net.Crash(s2)
	srv, err = w.sys.NearestServer(hc)
	if err != nil || srv != s1 {
		t.Errorf("NearestServer(hc) with s2 down = %v, %v; want s1", srv, err)
	}
}

func TestAccessors(t *testing.T) {
	w := newWorld(t, 4)
	if w.sys.Region() != "R1" {
		t.Errorf("Region = %q", w.sys.Region())
	}
	auth := w.sys.Resolve(uAlice)
	srv, ok := w.sys.Server(auth[0])
	if !ok || srv.ID() != auth[0] {
		t.Errorf("Server/ID = %v, %v", srv, ok)
	}
	if w.alice.User() != uAlice {
		t.Errorf("User = %v", w.alice.User())
	}
	if w.alice.CurrentHost() != ha {
		t.Errorf("CurrentHost = %v", w.alice.CurrentHost())
	}
	if w.alice.Polls() != 0 || w.alice.Retrievals() != 0 {
		t.Error("fresh agent has nonzero counters")
	}
	if len(w.alice.Inbox()) != 0 {
		t.Error("fresh agent has inbox content")
	}
	h, _ := w.sys.AddHost("hz", 0) // can't register on node 0
	_ = h
}

func TestKnownLocationAndUsers(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.alice.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	connecting, err := w.sys.NearestServer(ha)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := w.sys.Server(connecting)
	if loc, ok := srv.Online(uAlice); !ok || loc != ha {
		t.Errorf("Online = %v, %v", loc, ok)
	}
	// Logout clears the record.
	if err := w.alice.Logout(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if _, ok := srv.Online(uAlice); ok {
		t.Error("location survives logout")
	}
	// Users lists mailbox owners.
	w.bob.Send([]names.Name{uAlice}, "m", "b")
	w.sched.Run()
	auth := w.sys.Resolve(uAlice)
	head, _ := w.sys.Server(auth[0])
	users := head.Store().Users()
	if len(users) != 1 || users[0] != uAlice {
		t.Errorf("Users = %v", users)
	}
	if head.MailboxLen(names.MustParse("R1.ha.ghost")) != 0 {
		t.Error("ghost mailbox nonzero")
	}
}

func TestDuplicateDepositSuppressed(t *testing.T) {
	w := newWorld(t, 4)
	auth := w.sys.Resolve(uAlice)
	head, _ := w.sys.Server(auth[0])
	msg := mail.Message{ID: mail.MessageID{Node: 9, Seq: 1}, From: uBob, To: []names.Name{uAlice}}
	for i := 0; i < 2; i++ {
		tr := server.Transfer{Kind: server.TransferDeposit, Msg: msg, Recipient: uAlice, Origin: hb, Token: uint64(i)}
		if err := w.net.Send(hb, auth[0], new(netsim.FreeList[server.Transfer]).Box(tr)); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.Run()
	if head.MailboxLen(uAlice) != 1 {
		t.Errorf("duplicate deposit stored: %d", head.MailboxLen(uAlice))
	}
	if head.Stats().Get("duplicate_deposits") != 1 {
		t.Error("duplicate_deposits not counted")
	}
}

func TestCheckMailWhileDown(t *testing.T) {
	w := newWorld(t, 4)
	auth := w.sys.Resolve(uAlice)
	head, _ := w.sys.Server(auth[0])
	w.net.Crash(auth[0])
	if _, err := head.CheckMail(uAlice); err == nil {
		t.Error("CheckMail on a down server succeeded")
	}
}

// twoRegionWorld builds two federated location-independent regions:
// R1 = {ha, hb; s1, s2}, R2 = {hx; s9}, joined s2-s9.
func twoRegionWorld(t *testing.T) (*sim.Scheduler, *netsim.Network, *Federation) {
	t.Helper()
	const (
		hx graph.NodeID = 9
		s9 graph.NodeID = 109
	)
	g := graph.New()
	for _, n := range []struct {
		id     graph.NodeID
		label  string
		region string
		kind   graph.Kind
	}{
		{ha, "ha", "R1", graph.KindHost}, {hb, "hb", "R1", graph.KindHost},
		{s1, "S1", "R1", graph.KindServer}, {s2, "S2", "R1", graph.KindServer},
		{hx, "hx", "R2", graph.KindHost}, {s9, "S9", "R2", graph.KindServer},
	} {
		g.MustAddNode(graph.Node{ID: n.id, Label: n.label, Region: n.region, Kind: n.kind})
	}
	g.MustAddEdge(ha, s1, 1)
	g.MustAddEdge(hb, s1, 2)
	g.MustAddEdge(s1, s2, 1)
	g.MustAddEdge(s2, s9, 3)
	g.MustAddEdge(hx, s9, 1)

	sched := sim.New(29)
	net := netsim.New(sched, g)
	fed := NewFederation()
	r1, err := NewSystem(Config{Region: "R1", Net: net, Servers: []graph.NodeID{s1, s2}, Subgroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewSystem(Config{Region: "R2", Net: net, Servers: []graph.NodeID{s9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := fed.Add(r2); err != nil {
		t.Fatal(err)
	}
	if err := fed.Add(r1); err == nil {
		t.Fatal("duplicate federation Add accepted")
	}
	for _, h := range []struct {
		sys *System
		tok string
		id  graph.NodeID
	}{{r1, "ha", ha}, {r1, "hb", hb}, {r2, "hx", hx}} {
		if _, err := h.sys.AddHost(h.tok, h.id); err != nil {
			t.Fatal(err)
		}
	}
	return sched, net, fed
}

func TestFederatedCrossRegionDelivery(t *testing.T) {
	sched, _, fed := twoRegionWorld(t)
	r1, _ := fed.System("R1")
	r2, _ := fed.System("R2")
	sender, err := r1.NewAgent(names.MustParse("R1.ha.ann"))
	if err != nil {
		t.Fatal(err)
	}
	remote := names.MustParse("R2.hx.zed")
	rcpt, err := r2.NewAgent(remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Send([]names.Name{remote}, "cross", "b"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	got := rcpt.GetMail()
	if len(got) != 1 || got[0].Subject != "cross" {
		t.Fatalf("cross-region GetMail = %v", got)
	}
	// The R1↔R2 round trip equals the ack timeout, so the first forward may
	// legitimately retry once; dedup keeps delivery exactly-once.
	if stat(r1, "transfers_out")-stat(r1, "deposit_transfers") < 1 {
		t.Error("forwards_out not counted in R1")
	}
	if stat(r2, "forwards_in") < 1 {
		t.Error("forwards_in not counted in R2")
	}
	if stat(r2, "deposits_local") != 1 {
		t.Errorf("deposits = %d, want exactly 1 (dedup)", stat(r2, "deposits_local"))
	}
	if stat(r1, "unroutable") != 0 {
		t.Error("federated send counted as unroutable")
	}
}

func TestFederatedForwardRetriesAcrossCrash(t *testing.T) {
	sched, net, fed := twoRegionWorld(t)
	r1, _ := fed.System("R1")
	r2, _ := fed.System("R2")
	sender, _ := r1.NewAgent(names.MustParse("R1.ha.ann"))
	remote := names.MustParse("R2.hx.zed")
	rcpt, _ := r2.NewAgent(remote)

	// R2's only server is down at send time; the forward retries until it
	// recovers.
	net.Crash(109)
	if err := sender.Send([]names.Name{remote}, "late", "b"); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(50 * sim.Unit)
	if len(rcpt.GetMail()) != 0 {
		t.Fatal("delivered while target region down")
	}
	net.Recover(109)
	sched.Run()
	if got := rcpt.GetMail(); len(got) != 1 {
		t.Fatalf("after recovery GetMail = %v", got)
	}
}

func TestFederatedUnknownRegionStillCounted(t *testing.T) {
	sched, _, fed := twoRegionWorld(t)
	r1, _ := fed.System("R1")
	sender, _ := r1.NewAgent(names.MustParse("R1.ha.ann"))
	if err := sender.Send([]names.Name{names.MustParse("R9.h.x")}, "void", "b"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if stat(r1, "unroutable") != 1 {
		t.Error("unknown region not counted")
	}
	if _, ok := fed.System("R9"); ok {
		t.Error("phantom region")
	}
}

func TestFederatedRoamingRecipient(t *testing.T) {
	sched, _, fed := twoRegionWorld(t)
	r1, _ := fed.System("R1")
	r2, _ := fed.System("R2")
	sender, _ := r2.NewAgent(names.MustParse("R2.hx.zed"))
	roamer := names.MustParse("R1.ha.ann")
	a, _ := r1.NewAgent(roamer)
	// Ann roams within R1 and logs in; the cross-region message still
	// reaches her current location's alert path.
	if err := a.MoveTo(hb); err != nil {
		t.Fatal(err)
	}
	if err := a.Login(); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if err := sender.Send([]names.Name{roamer}, "find", "b"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(a.Notifications()) != 1 {
		t.Errorf("roaming recipient notifications = %v", a.Notifications())
	}
	if got := a.GetMail(); len(got) != 1 {
		t.Errorf("roaming recipient GetMail = %v", got)
	}
}

// Randomized system property: under random roaming, login churn, and server
// failures (one server always up), every submitted message is eventually
// retrieved exactly once.
func TestRandomizedRoamingNoLoss(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		w := newWorld(t, 6)
		rng := newRand(seed)
		hostsAll := []graph.NodeID{ha, hb, hc}
		sent := 0
		for round := 0; round < 80; round++ {
			// Churn: at most one of the two servers down at a time.
			switch rng.Intn(3) {
			case 0:
				w.net.Crash(s1)
				w.net.Recover(s2)
			case 1:
				w.net.Recover(s1)
				w.net.Crash(s2)
			default:
				w.net.Recover(s1)
				w.net.Recover(s2)
			}
			// Alice roams sometimes.
			if rng.Intn(4) == 0 {
				if err := w.alice.MoveTo(hostsAll[rng.Intn(len(hostsAll))]); err != nil {
					t.Fatal(err)
				}
				_ = w.alice.Login()
			}
			if err := w.bob.Send([]names.Name{uAlice}, "r", "b"); err == nil {
				sent++
			}
			w.sched.RunFor(30 * sim.Unit)
			if rng.Intn(2) == 0 {
				w.alice.GetMail()
			}
		}
		w.net.Recover(s1)
		w.net.Recover(s2)
		w.sched.RunFor(400 * sim.Unit)
		w.sched.Run()
		w.alice.GetMail()
		w.alice.GetMail()
		if got := len(w.alice.Inbox()); got != sent {
			t.Errorf("seed %d: received %d of %d", seed, got, sent)
		}
	}
}

// Test hooks: what the tests read of agents, systems and federations.

// LoggedIn reports whether the agent currently has an announced presence.
func (a *Agent) LoggedIn() bool { return a.loggedIn }

// PollCost reports the cumulative round-trip cost of the agent's polls,
// including any remote-access inflation.
func (a *Agent) PollCost() float64 { return a.pollCost }

// System returns a member region's system.
func (f *Federation) System(region string) (*System, bool) {
	s, ok := f.systems[region]
	return s, ok
}

// Subgroups returns the current hash modulus.
func (s *System) Subgroups() int { return s.subgroups }
