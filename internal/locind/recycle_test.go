package locind

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// poisonPayload is the netsim.AfterRecycle hook of this package's test worlds
// (newWorld, newRaceWorld): every box the network hands back is overwritten
// with a plausible wrong message — a real user, a small token, a server of
// the region — where production leaves zeros. Correct code never looks: a
// box is filled again before it flies again. A handler that kept a pointer
// into one past Receive would now deliver the junk message, settle the wrong
// deposit or alert the wrong user, and the exactly-once ledgers and recorded
// counters of the tests below and beside this file would show it. The
// servers' own boxes (transfers, acks, alerts) are scribbled on too.
func poisonPayload(payload any) {
	switch b := payload.(type) {
	case *netsim.Box[Submit]:
		b.V = Submit{From: uBob, To: junkMsg.To, Subject: "poison", Body: "poison"}
	case *netsim.Box[server.Transfer]:
		b.V = server.Transfer{Kind: server.TransferDeposit, Msg: junkMsg, Recipient: uAlice, Origin: t1, Token: 1}
	case *netsim.Box[server.TransferAck]:
		b.V = server.TransferAck{Token: 2}
	case *netsim.Box[server.Login]:
		b.V = server.Login{User: uAlice, Host: hc}
	case *netsim.Box[server.Logout]:
		b.V = server.Logout{User: uBob}
	case *netsim.Box[NotifyProbe]:
		b.V = NotifyProbe{User: uAlice, ID: junkMsg.ID, Server: t2, Token: 3}
	case *netsim.Box[ProbeReply]:
		b.V = ProbeReply{Token: 1, Found: true}
	case *netsim.Box[LocQuery]:
		b.V = LocQuery{User: uBob, From: t3, Token: 2}
	case *netsim.Box[LocReply]:
		b.V = LocReply{User: uBob, Host: ha, Known: true, Token: 3}
	case *netsim.Box[server.Notify]:
		b.V = server.Notify{User: uAlice, ID: junkMsg.ID, Server: t1}
	}
}

// Built once, so the hook allocates nothing and the allocation budgets hold
// with it installed.
var junkMsg = mail.Message{
	ID: mail.MessageID{Node: 666, Seq: 666}, From: uBob, To: []names.Name{uAlice, uBob},
	Subject: "poison", Body: "poison",
}

// runPendingSchedule drives a three-server region through a seeded schedule in
// which acks race the ack timeout (extra delay pushes the server round trip of
// 2–4 units past the timeout of 8, so a deposit is sent twice and acked
// twice), servers crash under deposits and probes in flight and re-dispatch on
// recovery, users roam and log in elsewhere, and the hash modulus changes
// while notifications are pending. It checks that every committed copy
// reaches its recipient exactly once and returns the protocol's counters.
func runPendingSchedule(t *testing.T, poison bool) (string, *raceWorld) {
	t.Helper()
	w := newRaceWorld(t)
	if !poison {
		w.net.AfterRecycle(nil)
	}
	rng := rand.New(rand.NewSource(23))
	servers := []graph.NodeID{t1, t2, t3}
	hostIDs := []graph.NodeID{ha, hb, hc}
	hostToks := []string{"ha", "hb", "hc"}
	sender := names.MustParse("R1.hb.sender")

	const users = 12
	agents := make([]*Agent, users)
	uname := make([]names.Name, users)
	for i := range agents {
		uname[i] = names.Name{Region: "R1", Host: hostToks[i%3], User: fmt.Sprintf("u%d", i)}
		agents[i] = mustAgent(t, w.sys, uname[i])
		if i%2 == 0 {
			if err := agents[i].Login(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.sched.Run()

	owed := make([]map[mail.MessageID]bool, users)
	for i := range owed {
		owed[i] = map[mail.MessageID]bool{}
	}
	moduli := []int{7, 6, 5, 6}
	rehashes := 0
	for step := 0; step < 700; step++ {
		switch op := rng.Intn(12); {
		case op < 5:
			srv, _ := w.sys.Server(servers[rng.Intn(len(servers))])
			first := rng.Intn(users)
			to := []int{first}
			if rng.Intn(3) == 0 {
				to = append(to, (first+1+rng.Intn(users-1))%users)
			}
			rcpts := make([]names.Name, len(to))
			for i, u := range to {
				rcpts[i] = uname[u]
			}
			if id, err := srv.Submit(server.SubmitRequest{From: sender, To: rcpts, Subject: "s", Body: "b"}); err == nil {
				for _, u := range to {
					owed[u][id] = true
				}
			}
		case op < 7:
			w.net.SetExtraDelay(servers[rng.Intn(len(servers))], sim.Time(rng.Intn(4))*sim.Unit)
		case op < 8:
			if id := servers[rng.Intn(len(servers))]; w.net.IsUp(id) {
				w.net.Crash(id)
			} else {
				w.net.Recover(id)
			}
		case op < 9:
			if _, err := w.sys.Rehash(moduli[rehashes%len(moduli)]); err != nil {
				t.Fatal(err)
			}
			rehashes++
		case op < 10: // with every server down there is nobody to tell; the user stays
			a := agents[rng.Intn(users)]
			if a.MoveTo(hostIDs[rng.Intn(len(hostIDs))]) == nil {
				_ = a.Login()
			}
		default:
			w.sched.RunFor(sim.Time(1+rng.Intn(6)) * sim.Unit)
		}
	}
	for _, id := range servers {
		w.net.SetExtraDelay(id, 0)
		w.net.Recover(id)
	}
	w.sched.Run()

	copies := 0
	for i, a := range agents {
		a.GetMail()
		if again := a.GetMail(); len(again) != 0 {
			t.Errorf("u%d: a second retrieval found %d more messages", i, len(again))
		}
		got := map[mail.MessageID]bool{}
		for _, m := range a.Inbox() {
			if got[m.ID] {
				t.Errorf("u%d received %v twice", i, m.ID)
			}
			got[m.ID] = true
			if !owed[i][m.ID] {
				t.Errorf("u%d received %v (%q), which nobody sent them", i, m.ID, m.Subject)
			}
		}
		for id := range owed[i] {
			if !got[id] {
				t.Errorf("u%d never received %v", i, id)
			}
		}
		copies += len(owed[i])
	}
	for _, id := range servers {
		if srv, _ := w.sys.Server(id); srv.PendingTransfers() != 0 {
			t.Errorf("s%d: %d deposits still pending at quiescence", id, srv.PendingTransfers())
		}
	}
	return fmt.Sprintf("%d copies; deposit_transfers %d retries %d duplicate_deposits %d deposits_local %d deposit_reroutes %d rehash_messages_moved %d; consultations %d notify_home %d notify_roaming %d notify_offline %d notifies %d",
		copies, stat(w.sys, "deposit_transfers"), stat(w.sys, "retries"), stat(w.sys, "duplicate_deposits"), stat(w.sys, "deposits_local"),
		stat(w.sys, "deposit_reroutes"), stat(w.sys, "rehash_messages_moved"),
		stat(w.sys, "consultations"), stat(w.sys, "notify_home"), stat(w.sys, "notify_roaming"), stat(w.sys, "notify_offline"), stat(w.sys, "notifies")), w
}

// pendingScheduleWant is what runPendingSchedule printed when the deposit half
// moved onto internal/server, whose transfer records are recycled and pinned
// by its own TestRecycledTransferRecords. (With locind's own deposit ledger the
// parent printed "190 copies; deposit_transfers 1187 deposit_retries 346
// duplicate_deposits 219 deposits 492 deposit_reroutes 125
// recovery_redispatches 432 rehash_messages_moved 283; consultations 174
// notify_home 35 notify_roaming 86 notify_offline 61 notify_known 235"; a
// server counts a recovery re-drive as a retry.)
const pendingScheduleWant = "190 copies; deposit_transfers 1170 retries 689 duplicate_deposits 223 deposits_local 492 deposit_reroutes 110 rehash_messages_moved 283; consultations 170 notify_home 39 notify_roaming 83 notify_offline 56 notifies 261"

// TestRecycledPendingRecords is the twin of internal/server's
// TestRecycledTransferRecords for what locind still recycles: a finished
// notification's record goes straight to the next, so this is where a second
// probe reply or a late consultation answer that still reached the old record
// would show: as a lost or doubled copy, or as a notification or consultation
// count other than the recorded one.
func TestRecycledPendingRecords(t *testing.T) {
	got, w := runPendingSchedule(t, false)
	if got != pendingScheduleWant {
		t.Errorf("counters of the seeded schedule changed:\n got %s\nwant %s", got, pendingScheduleWant)
	}
	for _, c := range []string{"retries", "duplicate_deposits", "consultations", "rehash_messages_moved", "notify_roaming"} {
		if stat(w.sys, c) == 0 {
			t.Errorf("the schedule must produce %s", c)
		}
	}
	// The records really were shared, and an idle one holds nothing.
	made := 0
	for _, id := range []graph.NodeID{t1, t2, t3} {
		l := w.sys.procs[id]
		made += len(l.free)
		for _, pn := range l.free {
			if !reflect.DeepEqual(*pn, pendingNotify{}) {
				t.Errorf("s%d: idle notification record still holds %+v", id, *pn)
			}
		}
		// Probes whose reply a crash swallowed stay in the table, as they did.
		for tok, pn := range l.notifying {
			if pn.user == (names.Name{}) {
				t.Errorf("s%d: notification %d in the table was cleared under it", id, tok)
			}
		}
	}
	if probes := stat(w.sys, "notify_probe_primary"); int64(made)*4 > probes {
		t.Errorf("%d records made for %d notifications; they are not being reused", made, probes)
	}
}

// TestPoisonedPayloadsChangeNothing: the same schedule with every recycled box
// overwritten with garbage instead of zeros ends in the same ledger and the
// same counters.
func TestPoisonedPayloadsChangeNothing(t *testing.T) {
	if got, _ := runPendingSchedule(t, true); got != pendingScheduleWant {
		t.Errorf("poisoned boxes changed the run:\n got %s\nwant %s", got, pendingScheduleWant)
	}
}

// TestDepositCycleTransitAllocs (budget): a warmed remote deposit with its
// notify-at-home — Transfer out, TransferAck back, NotifyProbe to the primary
// host, ProbeReply back, a transfer and a notification record taken and
// released — allocates nothing in transit. The two allocations left are the
// stores': the mailbox's one-slot []Stored after a drain and the agent's
// one-slot alert list after a drop.
func TestDepositCycleTransitAllocs(t *testing.T) {
	w := newRaceWorld(t)
	// A user at home on ha, whose login t1 heard, with a mailbox elsewhere:
	// the depositing server has to probe the primary host.
	rcpt := names.Name{Region: "R1", Host: "ha", User: "home0"}
	for i := 1; w.sys.Resolve(rcpt)[0] == t1; i++ {
		rcpt.User = fmt.Sprintf("home%d", i)
	}
	a := mustAgent(t, w.sys, rcpt)
	if err := a.Login(); err != nil {
		t.Fatal(err)
	}
	origin, _ := w.sys.Server(t1)
	head, _ := w.sys.Server(w.sys.Resolve(rcpt)[0])
	msg := mail.Message{ID: mail.MessageID{Node: origin.ID()}, From: uBob, To: []names.Name{rcpt}, Body: "b"}
	cycle := func() {
		msg.ID.Seq++
		origin.Route(msg, rcpt)
		w.sched.Run()
		if len(a.notifications) != 1 || head.MailboxLen(rcpt) != 1 {
			t.Fatalf("cycle ended with %d alerts and %d buffered messages, want 1 and 1", len(a.notifications), head.MailboxLen(rcpt))
		}
		a.DropNotifications()
		head.Store().Drain(rcpt)
	}
	cycle() // routes cached, flights, boxes and records pooled, counters registered
	before := w.sys.Stats().Get("notify_home")
	if n := testing.AllocsPerRun(100, cycle); n > 2 {
		t.Errorf("warmed deposit + notify-at-home cycle: %v allocs, want ≤ 2 (mailbox slot, alert slot; 0 in transit)", n)
	}
	if got := w.sys.Stats().Get("notify_home") - before; got != 101 {
		t.Errorf("%d of 101 cycles ended at notify_home", got)
	}
	if origin.PendingTransfers() != 0 || len(w.sys.procs[head.ID()].free) != 1 {
		t.Errorf("%d transfers pending and %d idle notification records, want 0 and the 1 each cycle reused", origin.PendingTransfers(), len(w.sys.procs[head.ID()].free))
	}
}

// TestTakeMailMatchesGetMail drives two identical regions through one seeded
// schedule of submissions, slow acks (a retried deposit lands on both
// authority servers), crashes and recoveries. One reader retrieves with
// GetMail and keeps its inbox, so every walk copies into it; the other with
// TakeMail, so every walk starts from an empty inbox and adopts the slice the
// mailbox gave away. Every retrieval returns the same messages in the same
// order with the same counters, and a batch handed over is never written
// again, whatever the agent polls afterwards.
func TestTakeMailMatchesGetMail(t *testing.T) {
	batches, dups := 0, 0
	servers := []graph.NodeID{t1, t2, t3}
	for seed := int64(1); seed <= 20; seed++ {
		copying, handing := newRaceWorld(t), newRaceWorld(t)
		worlds := []*raceWorld{copying, handing}
		rcpt := names.MustParse("R1.ha.reader")
		readers := make([]*Agent, len(worlds))
		for i, w := range worlds {
			readers[i] = mustAgent(t, w.sys, rcpt)
		}
		rng := rand.New(rand.NewSource(seed))
		type taken struct{ batch, snapshot []mail.Stored }
		var handed []taken
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				sid := servers[rng.Intn(len(servers))]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					for _, w := range worlds {
						srv, _ := w.sys.Server(sid)
						_, _ = srv.Submit(server.SubmitRequest{From: uBob, To: []names.Name{rcpt}, Subject: "s", Body: "b"}) // refused alike while sid is down
					}
				}
			case op < 6:
				sid, d := servers[rng.Intn(len(servers))], sim.Time(rng.Intn(4))*sim.Unit
				for _, w := range worlds {
					w.net.SetExtraDelay(sid, d)
				}
			case op < 7:
				sid := servers[rng.Intn(len(servers))]
				for _, w := range worlds {
					if w.net.IsUp(sid) {
						w.net.Crash(sid)
					} else {
						w.net.Recover(sid)
					}
				}
			default:
				d := sim.Time(1+rng.Intn(5)) * sim.Unit
				for _, w := range worlds {
					w.sched.RunFor(d)
				}
				want, got := readers[0].GetMail(), readers[1].TakeMail()
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("seed %d step %d: TakeMail %+v, GetMail %+v", seed, step, got, want)
				}
				if readers[0].Polls() != readers[1].Polls() || readers[0].Duplicates() != readers[1].Duplicates() || readers[0].PollCost() != readers[1].PollCost() {
					t.Fatalf("seed %d step %d: counters diverged", seed, step)
				}
				if len(readers[1].inbox) != 0 {
					t.Fatalf("seed %d step %d: TakeMail left %d messages in the inbox", seed, step, len(readers[1].inbox))
				}
				if len(got) > 0 {
					handed = append(handed, taken{got, append([]mail.Stored(nil), got...)})
				}
			}
		}
		for i, h := range handed {
			if !reflect.DeepEqual(h.batch, h.snapshot) {
				t.Fatalf("seed %d: batch %d was written after it was handed over", seed, i)
			}
		}
		batches += len(handed)
		dups += readers[0].Duplicates()
	}
	if batches < 100 || dups < 20 {
		t.Fatalf("the schedules handed over %d batches and suppressed %d duplicates; too few to prove anything", batches, dups)
	}
}
