package locind

import (
	"fmt"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

func tableUser(i int) names.Name {
	return names.Name{Region: "R1", Host: []string{"ha", "hb", "hc"}[i%3], User: fmt.Sprintf("u%d", i)}
}

// checkTable holds the authority table and the per-server consultation lists
// to the definitions they replaced: sub-group g is served by
// servers[(g+i) mod n] for i < listLen, and a server consults the rotation
// minus itself, in rotation order.
func checkTable(t *testing.T, sys *System, wantListLen int) {
	t.Helper()
	servers := sys.Servers()
	n := len(servers)
	if sys.listLen != wantListLen {
		t.Fatalf("listLen = %d, want %d", sys.listLen, wantListLen)
	}
	if len(sys.authority) != sys.subgroups*sys.listLen {
		t.Fatalf("table holds %d entries, want %d×%d", len(sys.authority), sys.subgroups, sys.listLen)
	}
	for i := 0; i < 300; i++ {
		u := tableUser(i)
		g := u.Subgroup(sys.Subgroups())
		var want []graph.NodeID
		for j := 0; j < wantListLen; j++ {
			want = append(want, servers[(g+j)%n])
		}
		got := sys.Resolve(u)
		if !slices.Equal(got, want) {
			t.Fatalf("AuthorityFor(%v) = %v, want %v (sub-group %d of %d over %v)",
				u, got, want, g, sys.Subgroups(), servers)
		}
		if cap(got) != len(got) {
			t.Fatalf("AuthorityFor(%v) has spare capacity %d: an append would write into the next row", u, cap(got)-len(got))
		}
	}
	if len(sys.others) != len(sys.procs) {
		t.Fatalf("consultation lists for %d servers, %d processes registered", len(sys.others), len(sys.procs))
	}
	for id := range sys.procs {
		var want []graph.NodeID
		for _, sid := range servers {
			if sid != id {
				want = append(want, sid)
			}
		}
		if !slices.Equal(sys.others[id], want) {
			t.Fatalf("others[%d] = %v, want %v", id, sys.others[id], want)
		}
	}
}

func TestAuthorityTableMatchesFormula(t *testing.T) {
	w := newRaceWorld(t) // t1,t2,t3; 6 sub-groups; default ListLen → 2
	checkTable(t, w.sys, 2)

	// A row handed out before a reconfiguration stays what it was.
	u := tableUser(7)
	row := w.sys.Resolve(u)
	was := slices.Clone(row)

	for _, k := range []int{7, 4, 1, 50} {
		if _, err := w.sys.Rehash(k); err != nil {
			t.Fatal(err)
		}
		checkTable(t, w.sys, 2)
	}
	if err := w.sys.AddServer(t4); err != nil {
		t.Fatal(err)
	}
	checkTable(t, w.sys, 2)
	for _, id := range []graph.NodeID{t2, t4} {
		if _, err := w.sys.RemoveServer(id); err != nil {
			t.Fatal(err)
		}
		checkTable(t, w.sys, 2)
	}
	// Down to one server the list length clamps with the rotation; the
	// removed servers' processes stay registered and consult everybody left.
	if _, err := w.sys.RemoveServer(t1); err != nil {
		t.Fatal(err)
	}
	checkTable(t, w.sys, 1)
	if _, err := w.sys.RemoveServer(t3); err != ErrNoServers {
		t.Fatalf("removing the last server: err = %v, want ErrNoServers", err)
	}
	checkTable(t, w.sys, 1)
	if !slices.Equal(row, was) {
		t.Errorf("row read before the reconfigurations changed under its holder: %v, was %v", row, was)
	}

	// Config.ListLen: honoured up to the rotation size (rows wrap around it),
	// min(2, servers) when unset or larger.
	for _, tc := range []struct{ servers, listLen, want int }{
		{3, 3, 3}, {3, 1, 1}, {3, 9, 2}, {3, 0, 2}, {1, 2, 1}, {1, 0, 1},
	} {
		g := graph.New()
		ids := make([]graph.NodeID, tc.servers)
		for i := range ids {
			ids[i] = graph.NodeID(300 + i)
			g.MustAddNode(graph.Node{ID: ids[i], Region: "R1", Kind: graph.KindServer})
			if i > 0 {
				g.MustAddEdge(ids[i-1], ids[i], 1)
			}
		}
		sys, err := NewSystem(Config{
			Region: "R1", Net: netsim.New(sim.New(1), g), Servers: ids, ListLen: tc.listLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, sys, tc.want)
	}
}

// A deposit armed before a rehash keeps the candidate row it was armed with:
// the table is replaced, never edited, so its retry walks the OLD list — and
// the stale-authority guard at the old candidate bounces the copy into the
// new rotation. Exactly one copy arrives.
func TestPendingDepositWalksOldCandidatesAcrossRehash(t *testing.T) {
	w := newRaceWorld(t)
	servers := w.sys.Servers()
	// Find a user whose second authority under 6 sub-groups is off their
	// list under 7.
	var u names.Name
	var old []graph.NodeID
	found := false
	for i := 0; i < 500 && !found; i++ {
		u = tableUser(i)
		old = slices.Clone(w.sys.Resolve(u))
		g7 := u.Subgroup(7)
		next := []graph.NodeID{servers[g7%3], servers[(g7+1)%3]}
		found = !slices.Contains(next, old[1])
	}
	if !found {
		t.Fatal("no probe user remaps the way the test needs")
	}
	var origin graph.NodeID
	for _, id := range servers {
		if !slices.Contains(old, id) {
			origin = id
		}
	}
	agent := mustAgent(t, w.sys, u)
	op, _ := w.sys.Server(origin)
	second, _ := w.sys.Server(old[1])

	// First attempt flies toward old[0], which crashes under it.
	if _, err := op.Submit(server.SubmitRequest{From: uBob, To: []names.Name{u}, Subject: "s", Body: "b"}); err != nil {
		t.Fatal(err)
	}
	w.net.Crash(old[0])
	w.sched.RunFor(2 * sim.Unit)
	if op.PendingTransfers() != 1 {
		t.Fatalf("origin has %d pending deposits, want 1", op.PendingTransfers())
	}
	if _, err := w.sys.Rehash(7); err != nil {
		t.Fatal(err)
	}
	w.sched.Run() // ack timeout → retry at old[1] → bounced → new rotation

	// The pending deposit kept the candidates it was armed with: its retry
	// went to old[1], off the new list, and old[1] bounced it.
	if got := second.Stats().Get("deposit_reroutes"); got != 1 {
		t.Errorf("deposit_reroutes at %d = %d, want 1: the retry should have reached the old second candidate and been bounced", old[1], got)
	}
	if got := stat(w.sys, "deposit_reroutes"); got != 1 {
		t.Errorf("deposit_reroutes = %d, want 1", got)
	}
	if got := stat(w.sys, "retries"); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	w.net.Recover(old[0])
	w.sched.Run()
	if got := len(agent.GetMail()); got != 1 {
		t.Errorf("recipient retrieved %d copies, want exactly 1", got)
	}
	for _, id := range servers {
		if p, _ := w.sys.Server(id); p.PendingTransfers() != 0 {
			t.Errorf("server %d still has %d pending deposits", id, p.PendingTransfers())
		}
	}
}

// Allocation budget (aim 1): reading an authority list is free. A deposit
// attempt's budget is internal/server's TestDispatchAllocs.
func TestAuthorityForAllocs(t *testing.T) {
	w := newRaceWorld(t)
	u := tableUser(3)
	if n := testing.AllocsPerRun(200, func() {
		if len(w.sys.Resolve(u)) != 2 {
			t.Fatal("bad row")
		}
	}); n != 0 {
		t.Errorf("AuthorityFor allocates %v per call, want 0", n)
	}
}

// BenchmarkAuthorityFor is the §3.2 resolve layer bench: hash the name, slice
// the table.
func BenchmarkAuthorityFor(b *testing.B) {
	w := newRaceWorld(&testing.T{})
	users := make([]names.Name, 1024)
	for i := range users {
		users[i] = tableUser(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(w.sys.Resolve(users[i%len(users)]))
	}
	if n != 2*b.N {
		b.Fatal("bad rows")
	}
}

// BenchmarkEvacuate is the §3.2.3c reconfiguration bench: one Rehash over
// 4 servers holding 4096 buffered mailboxes, alternating two sub-group counts so every
// wave moves mail, then the deliveries it caused drained. What a rehash costs
// per buffered mailbox is ns/op ÷ 4096. The drained=60000 variant adds the
// drained-empty mailboxes a long run leaves behind, as sim_roaming's servers
// keep them for duplicate suppression; a rehash has nothing to hand on there.
func BenchmarkEvacuate(b *testing.B) {
	for _, drained := range []int{0, 60_000} {
		b.Run(fmt.Sprintf("drained=%d", drained), func(b *testing.B) { benchEvacuate(b, drained) })
	}
}

func benchEvacuate(b *testing.B, drained int) {
	w := newRaceWorld(&testing.T{})
	if err := w.sys.AddServer(t4); err != nil {
		b.Fatal(err)
	}
	const boxes = 4096
	for i := 0; i < boxes+drained; i++ {
		u := tableUser(i)
		p, _ := w.sys.Server(w.sys.Resolve(u)[0])
		p.Store().Deposit(u, mail.Message{
			ID: mail.MessageID{Node: 1, Seq: uint64(i + 1)}, To: []names.Name{u}, Subject: "s", Body: "b",
		}, 0)
		if i >= boxes {
			p.Store().Drain(u)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	moved := 0
	for i := 0; i < b.N; i++ {
		m, err := w.sys.Rehash(7 + i%2)
		if err != nil {
			b.Fatal(err)
		}
		moved += m
		w.sched.Run()
	}
	b.ReportMetric(float64(moved)/float64(b.N), "moved/op")
}

// TestRoamRecoveryRestartsAtHead pins §3.2's crash re-drive to §3.1's rule —
// fail-over walks the preference list from the top (Ruohonen's MX
// measurements, PAPERS.md). The origin's deposit reaches the recipient's
// primary, the origin crashes before the ack lands, then recovers and
// re-drives. When locind kept its own ledger, the re-drive resumed the
// rotation where it stopped and went to the backup, which stored a second
// copy; now it goes to the primary again, whose mailbox suppresses it.
func TestRoamRecoveryRestartsAtHead(t *testing.T) {
	w := newRaceWorld(t)
	u := tableUser(0)
	list := w.sys.Resolve(u)
	var origin graph.NodeID
	for _, id := range w.sys.Servers() {
		if !slices.Contains(list, id) {
			origin = id
		}
	}
	a := mustAgent(t, w.sys, u)
	op, _ := w.sys.Server(origin)
	primary, _ := w.sys.Server(list[0])
	backup, _ := w.sys.Server(list[1])
	cost, err := w.net.Cost(origin, list[0])
	if err != nil {
		t.Fatal(err)
	}
	oneWay := sim.Time(cost * float64(sim.Unit))

	if _, err := op.Submit(server.SubmitRequest{From: uBob, To: []names.Name{u}, Subject: "s", Body: "b"}); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(oneWay + oneWay/2) // the deposit is in at the primary, its ack in the air
	if primary.MailboxLen(u) != 1 {
		t.Fatalf("primary holds %d copies before the crash, want 1", primary.MailboxLen(u))
	}
	w.net.Crash(origin)
	w.sched.RunFor(oneWay) // the ack lands on the crashed origin
	w.net.Recover(origin)
	w.sched.Run()

	if got := backup.MailboxLen(u); got != 0 {
		t.Errorf("backup %d holds %d copies: the re-drive resumed mid-list instead of at the primary", list[1], got)
	}
	if got := primary.Stats().Get("duplicate_deposits"); got != 1 {
		t.Errorf("primary suppressed %d re-driven copies, want 1", got)
	}
	if got := len(a.GetMail()); got != 1 {
		t.Errorf("recipient retrieved %d copies, want 1", got)
	}
	if d := a.Duplicates(); d != 0 {
		t.Errorf("recipient suppressed %d duplicates, want 0", d)
	}
}
