package server

import (
	"errors"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// Node IDs for the two-region test world.
const (
	h1 graph.NodeID = 1   // host in R1
	h2 graph.NodeID = 2   // host in R2
	s1 graph.NodeID = 101 // server in R1
	s2 graph.NodeID = 102 // server in R1
	s3 graph.NodeID = 201 // server in R2
)

var (
	alice = names.MustParse("R1.h1.alice")
	carol = names.MustParse("R1.h1.carol")
	bob   = names.MustParse("R2.h2.bob")
)

type hostRec struct {
	acks      []SubmitAck
	notifies  []Notify
	batchAcks []TransferBatchAck
}

func (h *hostRec) Receive(env netsim.Envelope) {
	switch p := env.Payload.(type) {
	case SubmitAck:
		h.acks = append(h.acks, p)
	case *netsim.Box[Notify]:
		h.notifies = append(h.notifies, p.V)
	case *netsim.Box[TransferBatchAck]:
		h.batchAcks = append(h.batchAcks, p.V)
	}
}

type world struct {
	sched   *sim.Scheduler
	net     *netsim.Network
	servers map[graph.NodeID]*Server
	hosts   map[graph.NodeID]*hostRec
	dirR1   *Directory
	dirR2   *Directory
}

// newWorld builds: R1 = {H1, S1, S2}, R2 = {H2, S3};
// H1-S1(1), S1-S2(1), S2-S3(2), H2-S3(1).
// alice, carol: authority [S1, S2]; bob: authority [S3].
// Optional mutators adjust each server's Config before construction.
func newWorld(t *testing.T, mutate ...func(*Config)) *world {
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

	sched := sim.New(7)
	net := netsim.New(sched, g)
	net.AfterRecycle(poisonPayload) // every test of this world runs on scribbled boxes
	w := &world{
		sched:   sched,
		net:     net,
		servers: make(map[graph.NodeID]*Server),
		hosts:   make(map[graph.NodeID]*hostRec),
		dirR1:   NewDirectory("R1"),
		dirR2:   NewDirectory("R2"),
	}
	regions := NewRegionMap()
	for _, spec := range []struct {
		id     graph.NodeID
		region string
		dir    *Directory
	}{{s1, "R1", w.dirR1}, {s2, "R1", w.dirR1}, {s3, "R2", w.dirR2}} {
		cfg := Config{
			ID: spec.id, Region: spec.region, Net: net,
			Dir: spec.dir, Regions: regions,
		}
		for _, m := range mutate {
			m(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.servers[spec.id] = srv
	}
	for _, id := range []graph.NodeID{h1, h2} {
		rec := &hostRec{}
		w.hosts[id] = rec
		net.MustRegister(id, rec)
	}
	if err := w.dirR1.SetAuthority(alice, []graph.NodeID{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if err := w.dirR1.SetAuthority(carol, []graph.NodeID{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if err := w.dirR2.SetAuthority(bob, []graph.NodeID{s3}); err != nil {
		t.Fatal(err)
	}
	return w
}

// submit injects a SubmitRequest from a host into a server and runs the
// simulation to quiescence.
func (w *world) submit(t *testing.T, host, srv graph.NodeID, from names.Name, to ...names.Name) {
	t.Helper()
	if err := w.net.Send(host, srv, SubmitRequest{From: from, To: to, Subject: "s", Body: "b"}); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with nil deps succeeded")
	}
	w := newWorld(t)
	if _, err := New(Config{
		ID: 999, Region: "R2", Net: w.net, Dir: w.dirR1, Regions: NewRegionMap(),
	}); err == nil {
		t.Error("directory/region mismatch accepted")
	}
}

func TestLocalDepositAtConnectedServer(t *testing.T) {
	w := newWorld(t)
	w.submit(t, h1, s1, carol, alice)
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Fatalf("S1 mailbox for alice has %d messages, want 1", got)
	}
	if w.servers[s2].MailboxLen(alice) != 0 {
		t.Error("message duplicated at S2")
	}
	if len(w.hosts[h1].acks) != 1 {
		t.Errorf("submitter got %d acks, want 1", len(w.hosts[h1].acks))
	}
	if w.servers[s1].Stats().Get("deposits_local") != 1 {
		t.Error("deposits_local not counted")
	}
	msgs, err := w.servers[s1].CheckMail(alice)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("CheckMail = %v, %v", msgs, err)
	}
	if msgs[0].From != carol || msgs[0].Subject != "s" {
		t.Errorf("retrieved message = %+v", msgs[0])
	}
	if w.servers[s1].MailboxLen(alice) != 0 {
		t.Error("CheckMail did not drain")
	}
}

func TestDepositSkipsDownPrimary(t *testing.T) {
	w := newWorld(t)
	w.net.Crash(s1)
	// Submit via S2 (S1 is down): first *active* authority server is S2.
	w.submit(t, h1, s2, carol, alice)
	if got := w.servers[s2].MailboxLen(alice); got != 1 {
		t.Fatalf("S2 mailbox = %d, want 1 (primary down)", got)
	}
	if w.servers[s2].PendingTransfers() != 0 {
		t.Error("pending transfers remain")
	}
}

func TestTransferToRemoteAuthority(t *testing.T) {
	w := newWorld(t)
	// Submit at S2; alice's first active authority server is S1 → network
	// transfer S2→S1 with ack.
	w.submit(t, h1, s2, carol, alice)
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Fatalf("S1 mailbox = %d, want 1", got)
	}
	if w.servers[s2].PendingTransfers() != 0 {
		t.Error("ack did not clear pending transfer")
	}
	if w.servers[s2].Stats().Get("transfers_out") != 1 {
		t.Error("transfers_out not counted")
	}
}

func TestInterRegionForward(t *testing.T) {
	w := newWorld(t)
	w.submit(t, h1, s1, alice, bob)
	if got := w.servers[s3].MailboxLen(bob); got != 1 {
		t.Fatalf("S3 mailbox for bob = %d, want 1", got)
	}
	if w.servers[s3].Stats().Get("forwards_in") != 1 {
		t.Error("forwards_in not counted at S3")
	}
}

func TestMultiRecipientFanout(t *testing.T) {
	w := newWorld(t)
	w.submit(t, h1, s1, carol, alice, bob)
	if w.servers[s1].MailboxLen(alice) != 1 {
		t.Error("alice copy missing")
	}
	if w.servers[s3].MailboxLen(bob) != 1 {
		t.Error("bob copy missing")
	}
	// Both copies share the message ID.
	am := w.servers[s1].Store().Peek(alice)
	bm := w.servers[s3].Store().Peek(bob)
	if am[0].ID != bm[0].ID {
		t.Errorf("fanout IDs differ: %v vs %v", am[0].ID, bm[0].ID)
	}
}

func TestSubmitDirect(t *testing.T) {
	w := newWorld(t)
	id, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}, Subject: "s", Body: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if id.Node != s1 || id.Seq == 0 {
		t.Fatalf("Submit id = %v, want node %d with nonzero seq", id, s1)
	}
	w.sched.Run()
	got, err := w.servers[s3].CheckMail(bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("bob's mailbox = %v, want just %v", got, id)
	}
	// Direct submission skips the ack round-trip entirely.
	if n := len(w.hosts[h1].acks); n != 0 {
		t.Errorf("direct Submit produced %d SubmitAcks, want 0", n)
	}
}

// TestSubmitToListsAreIndependent: a message keeps its recipient list though
// the caller reuses the slice it submitted, and the lists of two messages
// carved side by side stay apart when one of them is appended to.
func TestSubmitToListsAreIndependent(t *testing.T) {
	w := newWorld(t)
	srv := w.servers[s1]
	to := []names.Name{alice, carol}
	for _, body := range []string{"one", "two"} {
		if _, err := srv.Submit(SubmitRequest{From: alice, To: to, Subject: "s", Body: body}); err != nil {
			t.Fatal(err)
		}
		to[0], to[1] = carol, alice
	}
	to[0], to[1] = bob, bob
	got := srv.Store().Peek(carol)
	if len(got) != 2 {
		t.Fatalf("carol holds %d messages, want 2", len(got))
	}
	one, two := got[0].Message, got[1].Message
	if !slices.Equal(one.To, []names.Name{alice, carol}) || !slices.Equal(two.To, []names.Name{carol, alice}) {
		t.Fatalf("recipient lists after the caller reused its slice: %v and %v", one.To, two.To)
	}
	grown := append(one.To, bob)
	if !slices.Equal(two.To, []names.Name{carol, alice}) || !slices.Equal(grown, []names.Name{alice, carol, bob}) {
		t.Fatalf("appending to one message's recipients made the next one's %v", two.To)
	}
}

// TestSubmitAllocs: accepting a message to a local recipient and depositing it
// allocates nothing per message but shares of arrays — the chunk its
// recipient list is carved from and the mailbox's growth. Copying the list
// was one allocation per message.
func TestSubmitAllocs(t *testing.T) {
	w := newWorld(t)
	req := SubmitRequest{From: alice, To: []names.Name{carol}, Subject: "s", Body: "b"}
	submit := func() {
		if _, err := w.servers[s1].Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, submit); n != 0 {
		t.Errorf("Submit to a local recipient: %v allocs, want 0", n)
	}
}

func TestSubmitDirectDownServer(t *testing.T) {
	w := newWorld(t)
	w.net.Crash(s1)
	if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); !errors.Is(err, ErrDown) {
		t.Fatalf("Submit on crashed server err = %v, want ErrDown", err)
	}
}

func TestRetryAfterTargetCrashInFlight(t *testing.T) {
	w := newWorld(t)
	// Submit at S2; transfer heads to S1. Crash S1 before delivery: the
	// message is dropped, the retry timer fires, and the transfer lands at
	// the next authority server (S2 itself).
	if err := w.net.Send(h1, s2, SubmitRequest{From: carol, To: []names.Name{alice}}); err != nil {
		t.Fatal(err)
	}
	w.sched.RunUntil(2 * sim.Unit) // submission reaches S2, transfer departs
	w.net.Crash(s1)
	w.sched.Run()
	if got := w.servers[s2].MailboxLen(alice); got != 1 {
		t.Fatalf("after retry, S2 mailbox = %d, want 1", got)
	}
	if w.servers[s2].Stats().Get("retries") == 0 {
		t.Error("retry not counted")
	}
	if w.servers[s2].PendingTransfers() != 0 {
		t.Error("pending transfer not cleared after retry success")
	}
}

func TestAllAuthorityServersDownThenRecovery(t *testing.T) {
	w := newWorld(t)
	w.net.Crash(s1)
	w.net.Crash(s2)
	// Bob (R2) sends to alice (R1): S3 forwards... but both R1 servers are
	// down, so the forward itself retries until one recovers.
	if err := w.net.Send(h2, s3, SubmitRequest{From: bob, To: []names.Name{alice}}); err != nil {
		t.Fatal(err)
	}
	w.sched.RunUntil(100 * sim.Unit)
	if w.servers[s1].MailboxLen(alice)+w.servers[s2].MailboxLen(alice) != 0 {
		t.Fatal("message deposited while all authority servers down")
	}
	w.net.Recover(s2)
	w.sched.Run()
	if got := w.servers[s2].MailboxLen(alice); got != 1 {
		t.Fatalf("after recovery, S2 mailbox = %d, want 1", got)
	}
}

func TestOriginCrashRecoveryResumesTransfers(t *testing.T) {
	w := newWorld(t)
	// S2 accepts a submission and queues a transfer to S1; S2 crashes
	// before the ack returns, recovers later, and must resume the queued
	// transfer from stable storage.
	if err := w.net.Send(h1, s2, SubmitRequest{From: carol, To: []names.Name{alice}}); err != nil {
		t.Fatal(err)
	}
	w.sched.RunUntil(2*sim.Unit + 1) // transfer sent, ack in flight
	w.net.Crash(s2)
	w.sched.RunUntil(20 * sim.Unit)
	w.net.Recover(s2)
	w.sched.Run()
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Fatalf("S1 mailbox = %d, want 1", got)
	}
	// The resumed duplicate (if the first copy arrived) must be suppressed.
	if msgs := w.servers[s1].Store().Peek(alice); len(msgs) != 1 {
		t.Errorf("duplicate transfer not suppressed: %d messages", len(msgs))
	}
}

func TestNotifyOnlineUser(t *testing.T) {
	w := newWorld(t)
	if err := w.net.Send(h2, s3, Login{User: bob, Host: h2}); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	w.submit(t, h1, s1, alice, bob)
	if len(w.hosts[h2].notifies) != 1 {
		t.Fatalf("bob's host got %d notifies, want 1", len(w.hosts[h2].notifies))
	}
	if w.hosts[h2].notifies[0].User != bob {
		t.Errorf("notify = %+v", w.hosts[h2].notifies[0])
	}
	// After logout, no further alerts.
	if err := w.net.Send(h2, s3, Logout{User: bob}); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	w.submit(t, h1, s1, alice, bob)
	if len(w.hosts[h2].notifies) != 1 {
		t.Error("notified after logout")
	}
}

func TestNotifyOnLoginWithBufferedMail(t *testing.T) {
	w := newWorld(t)
	w.submit(t, h1, s1, alice, bob) // bob offline; mail buffered at S3
	if len(w.hosts[h2].notifies) != 0 {
		t.Fatal("offline user notified")
	}
	if err := w.net.Send(h2, s3, Login{User: bob, Host: h2}); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if len(w.hosts[h2].notifies) != 1 {
		t.Errorf("login with buffered mail: %d notifies, want 1", len(w.hosts[h2].notifies))
	}
}

func TestCheckMailErrors(t *testing.T) {
	w := newWorld(t)
	if msgs, err := w.servers[s1].CheckMail(alice); err != nil || msgs != nil {
		t.Errorf("unknown-user CheckMail = %v, %v; want nil, nil", msgs, err)
	}
	w.net.Crash(s1)
	if _, err := w.servers[s1].CheckMail(alice); !errors.Is(err, ErrDown) {
		t.Errorf("down CheckMail err = %v, want ErrDown", err)
	}
}

func TestUnresolvableAndUnroutable(t *testing.T) {
	w := newWorld(t)
	ghostLocal := names.MustParse("R1.h1.ghost")
	ghostRegion := names.MustParse("R9.hx.ghost")
	w.submit(t, h1, s1, alice, ghostLocal)
	if w.servers[s1].Stats().Get("unresolvable") != 1 {
		t.Error("unresolvable not counted")
	}
	w.submit(t, h1, s1, alice, ghostRegion)
	if w.servers[s1].Stats().Get("unroutable") != 1 {
		t.Error("unroutable not counted")
	}
}

func TestMisroutedForwardIsRerouted(t *testing.T) {
	w := newWorld(t)
	// Hand S1 a forward for bob (R2) as if a stale region map had routed it
	// here; S1 must route it onward to S3.
	msg := mail.Message{ID: mail.MessageID{Node: 999, Seq: 1}, From: alice, To: []names.Name{bob}}
	if err := w.net.Send(h1, s1, new(netsim.FreeList[Transfer]).Box(Transfer{
		Kind: TransferForward, Msg: msg, Recipient: bob, Origin: h1, Token: 1,
	})); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if got := w.servers[s3].MailboxLen(bob); got != 1 {
		t.Errorf("misrouted forward not delivered: S3 mailbox = %d", got)
	}
}

// TestDirectoryBasics: every directory write is visible to the next read —
// SetAuthority's add, replace and remove through Resolve (a name resolved
// while unknown, then registered, included), SetRedirect through Redirect, SetGroup's add and remove through Group — and Resolve
// hands out the stored list itself, free, which SetAuthority's input cannot
// reach.
func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory("R1")
	if err := d.SetAuthority(bob, []graph.NodeID{s3}); err == nil {
		t.Error("cross-region SetAuthority accepted")
	}
	alias, staff := names.MustParse("R1.h1.alice-old"), names.MustParse("R1.h1.staff")
	steps := []struct {
		name  string
		write func() error
		auth  []graph.NodeID // Resolve(alice) after the write
		to    names.Name     // Redirect(alias); the zero name: none
		group []names.Name   // Group(staff); nil: none
	}{
		{"unknown", func() error { return nil }, nil, names.Name{}, nil},
		{"add", func() error { return d.SetAuthority(alice, []graph.NodeID{s1, s2}) }, []graph.NodeID{s1, s2}, names.Name{}, nil},
		{"replace", func() error { return d.SetAuthority(alice, []graph.NodeID{s2}) }, []graph.NodeID{s2}, names.Name{}, nil},
		{"redirect", func() error { return d.SetRedirect(alias, alice) }, []graph.NodeID{s2}, alice, nil},
		{"group", func() error { return d.SetGroup(staff, []names.Name{alice, carol}) }, []graph.NodeID{s2}, alice, []names.Name{alice, carol}},
		{"ungroup", func() error { return d.SetGroup(staff, nil) }, []graph.NodeID{s2}, alice, nil},
		{"remove", func() error { return d.SetAuthority(alice, nil) }, nil, alice, nil},
		{"re-register", func() error { return d.SetAuthority(alice, []graph.NodeID{s1}) }, []graph.NodeID{s1}, alice, nil},
	}
	for _, st := range steps {
		if err := st.write(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := d.Resolve(alice); !slices.Equal(got, st.auth) || (got == nil) != (st.auth == nil) {
			t.Errorf("%s: Resolve = %v, want %v", st.name, got, st.auth)
		}
		if to, ok := d.Redirect(alias); to != st.to || ok != (st.to != names.Name{}) {
			t.Errorf("%s: Redirect = %v %v, want %v", st.name, to, ok, st.to)
		}
		if members, ok := d.Group(staff); !slices.Equal(members, st.group) || ok != (st.group != nil) {
			t.Errorf("%s: Group = %v %v, want %v", st.name, members, ok, st.group)
		}
	}

	in := []graph.NodeID{s1, s2}
	if err := d.SetAuthority(carol, in); err != nil {
		t.Fatal(err)
	}
	if a := d.Resolve(carol); &a[0] != &in[0] {
		t.Errorf("Resolve = %v: not the list SetAuthority was given", a)
	}
	if n := testing.AllocsPerRun(100, func() { d.Resolve(carol) }); n != 0 {
		t.Errorf("Resolve allocates %v per call, want 0", n)
	}
}

func TestRegionMap(t *testing.T) {
	m := NewRegionMap()
	m.AddServer("R1", s1)
	m.AddServer("R1", s2)
	m.AddServer("R1", s1) // duplicate ignored
	m.AddServer("R2", s3)
	if got := m.Servers("R1"); len(got) != 2 || got[0] != s1 {
		t.Errorf("Servers(R1) = %v", got)
	}
	if regions := m.Regions(); len(regions) != 2 || regions[0] != "R1" {
		t.Errorf("Regions = %v", regions)
	}
	m.RemoveServer("R1", s1)
	if got := m.Servers("R1"); len(got) != 1 || got[0] != s2 {
		t.Errorf("after remove, Servers(R1) = %v", got)
	}
	m.RemoveServer("R2", s3)
	if len(m.Regions()) != 1 {
		t.Error("empty region not dropped")
	}
}

func TestStoredBytes(t *testing.T) {
	w := newWorld(t)
	w.submit(t, h1, s1, carol, alice)
	var got int
	w.servers[s1].Store().View(alice, func(mb *mail.Mailbox) { got = mb.Bytes() })
	if got != len("s")+len("b") {
		t.Errorf("stored bytes = %d", got)
	}
}

func TestMigrationRedirect(t *testing.T) {
	w := newWorld(t)
	// Alice migrates to R2 as "R2.h2.alice": her R1 authority entry is
	// removed and a redirect installed (§3.1.4).
	newName := names.MustParse("R2.h2.alice")
	if err := w.dirR2.SetAuthority(newName, []graph.NodeID{s3}); err != nil {
		t.Fatal(err)
	}
	if err := w.dirR1.SetAuthority(alice, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.dirR1.SetRedirect(alice, newName); err != nil {
		t.Fatal(err)
	}
	w.submit(t, h1, s1, carol, alice) // addressed to the OLD name
	if got := w.servers[s3].MailboxLen(newName); got != 1 {
		t.Fatalf("redirected mail not at new authority: %d", got)
	}
	if w.servers[s1].Stats().Get("redirects") != 1 {
		t.Error("redirect not counted")
	}
	// After the grace period the redirect is dropped; old-name mail
	// becomes unresolvable.
	delete(w.dirR1.redirects, alice)
	w.submit(t, h1, s1, carol, alice)
	if w.servers[s1].Stats().Get("unresolvable") != 1 {
		t.Error("post-grace mail not counted unresolvable")
	}
}

func TestSetRedirectWrongRegion(t *testing.T) {
	d := NewDirectory("R1")
	if err := d.SetRedirect(bob, alice); err == nil {
		t.Error("cross-region redirect source accepted")
	}
	if _, ok := d.Redirect(alice); ok {
		t.Error("phantom redirect")
	}
}

func TestDistributionListFanout(t *testing.T) {
	w := newWorld(t)
	team := names.MustParse("R1.lists.team")
	if err := w.dirR1.SetGroup(team, []names.Name{alice, carol, bob}); err != nil {
		t.Fatal(err)
	}
	w.submit(t, h1, s1, carol, team)
	if w.servers[s1].MailboxLen(alice) != 1 {
		t.Error("alice missing group copy")
	}
	if w.servers[s1].MailboxLen(carol) != 1 {
		t.Error("carol missing group copy")
	}
	if w.servers[s3].MailboxLen(bob) != 1 {
		t.Error("cross-region member bob missing group copy")
	}
	if w.servers[s1].Stats().Get("group_expansions") != 1 {
		t.Error("group expansion not counted")
	}
	// All copies share one message ID.
	am := w.servers[s1].Store().Peek(alice)
	bm := w.servers[s3].Store().Peek(bob)
	if am[0].ID != bm[0].ID {
		t.Error("group copies have different IDs")
	}
}

func TestGroupValidationAndSelfReference(t *testing.T) {
	d := NewDirectory("R1")
	team := names.MustParse("R1.lists.team")
	if err := d.SetGroup(names.MustParse("R9.l.t"), nil); err == nil {
		t.Error("cross-region group accepted")
	}
	if err := d.SetAuthority(alice, []graph.NodeID{s1}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetGroup(alice, []names.Name{carol}); err == nil {
		t.Error("group colliding with user accepted")
	}
	members := []names.Name{alice, team}
	if err := d.SetGroup(team, members); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Group(team)
	if !ok || len(got) != 2 {
		t.Fatalf("Group = %v, %v", got, ok)
	}
	if &got[0] != &members[0] {
		t.Error("Group returned a copy, not the list SetGroup was given")
	}
	if n := testing.AllocsPerRun(100, func() { d.Group(team) }); n != 0 {
		t.Errorf("Group allocates %v per call, want 0", n)
	}
	if err := d.SetGroup(team, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Group(team); ok {
		t.Error("empty member list did not remove group")
	}
}

func TestSelfReferentialGroupTerminates(t *testing.T) {
	w := newWorld(t)
	team := names.MustParse("R1.lists.loop")
	if err := w.dirR1.SetGroup(team, []names.Name{team, alice}); err != nil {
		t.Fatal(err)
	}
	w.submit(t, h1, s1, carol, team) // must not loop forever
	if w.servers[s1].MailboxLen(alice) != 1 {
		t.Error("member not delivered despite self-reference")
	}
}

func TestMutuallyRecursiveGroupsTerminate(t *testing.T) {
	w := newWorld(t)
	loopA := names.MustParse("R1.lists.loopa")
	loopB := names.MustParse("R2.lists.loopb")
	if err := w.dirR1.SetGroup(loopA, []names.Name{loopB, alice}); err != nil {
		t.Fatal(err)
	}
	if err := w.dirR2.SetGroup(loopB, []names.Name{loopA, bob}); err != nil {
		t.Fatal(err)
	}
	w.submit(t, h1, s1, carol, loopA)
	// Real members receive finitely many copies; the cycle is cut.
	if w.servers[s1].MailboxLen(alice) == 0 {
		t.Error("alice got nothing")
	}
	if w.servers[s3].MailboxLen(bob) == 0 {
		t.Error("bob got nothing")
	}
	var dropped int64
	for _, srv := range w.servers {
		dropped += srv.Stats().Get("group_loops_dropped")
	}
	if dropped == 0 {
		t.Error("cycle never detected")
	}
}

// lineWorld builds one region on a line, origin —cost— head —1— backup, and
// gives dave the authority list [head, backup].
func lineWorld(t *testing.T, cost float64, mutate ...func(*Config)) (*sim.Scheduler, *netsim.Network, map[graph.NodeID]*Server) {
	t.Helper()
	const origin, head, backup graph.NodeID = 1, 2, 3
	g := graph.New()
	for _, id := range []graph.NodeID{origin, head, backup} {
		g.MustAddNode(graph.Node{ID: id, Region: "R1", Kind: graph.KindServer})
	}
	g.MustAddEdge(origin, head, cost)
	g.MustAddEdge(head, backup, 1)
	sched := sim.New(7)
	net := netsim.New(sched, g)
	dir, regions := NewDirectory("R1"), NewRegionMap()
	servers := map[graph.NodeID]*Server{}
	for _, id := range []graph.NodeID{origin, head, backup} {
		cfg := Config{ID: id, Region: "R1", Net: net, Dir: dir, Regions: regions}
		for _, m := range mutate {
			m(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = srv
	}
	if err := dir.SetAuthority(dave, []graph.NodeID{head, backup}); err != nil {
		t.Fatal(err)
	}
	return sched, net, servers
}

var dave = names.MustParse("R1.h1.dave")

// TestAckTimeoutCoversRoute: a transfer whose route's round trip is above
// RetryTimeout waits for its ack, alone or in a batch, so a failure-free run
// retries nothing, deposits nothing twice and splits no batch. On a short
// route RetryTimeout is still the floor: the retry fires exactly then.
func TestAckTimeoutCoversRoute(t *testing.T) {
	const origin, head = 1, 2
	for _, size := range []int{1, 4} {
		sched, net, servers := lineWorld(t, 5, batched(size, 2*sim.Unit))
		if c, _ := net.Cost(origin, head); 2*c <= 8 { // one cost unit is one time unit
			t.Fatalf("round trip %v is not above the 8-unit floor", 2*c)
		}
		for i := 0; i < 8; i++ {
			if _, err := servers[origin].Submit(SubmitRequest{From: dave, To: []names.Name{dave}}); err != nil {
				t.Fatal(err)
			}
		}
		sched.Run()
		if got := servers[head].MailboxLen(dave); got != 8 {
			t.Errorf("batch %d: head holds %d messages, want 8", size, got)
		}
		for _, c := range []string{"retries", "duplicate_deposits", "batch_splits"} {
			var n int64
			for _, srv := range servers {
				n += srv.Stats().Get(c)
			}
			if n != 0 {
				t.Errorf("batch %d: %s = %d, want 0", size, c, n)
			}
		}
	}

	sched, net, servers := lineWorld(t, 1)
	if _, err := servers[origin].Submit(SubmitRequest{From: dave, To: []names.Name{dave}}); err != nil {
		t.Fatal(err)
	}
	net.Crash(head) // the transfer is in the air: it is dropped on arrival
	sched.RunFor(8*sim.Unit - 1)
	if n := servers[origin].Stats().Get("retries"); n != 0 {
		t.Fatalf("retried %d times before the 8-unit floor", n)
	}
	sched.RunFor(1)
	if n := servers[origin].Stats().Get("retries"); n != 1 {
		t.Errorf("retries at the 8-unit floor = %d, want 1", n)
	}
}
