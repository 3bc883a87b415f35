package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// poisonPayload is the netsim.AfterRecycle hook of this package's test world
// (newWorld): every box the network hands back is overwritten with a
// plausible wrong transfer — a real recipient, a small token, a server of the
// world — where production leaves zeros. Correct code never looks: a box is
// filled again before it flies again, and a batch box is taken empty (so the
// junk items go into the kept array, past its length). A handler that kept a
// pointer into a box past Receive would deposit the junk message or settle
// the wrong transfer, and the exactly-once ledger and the recorded counters
// of TestRecycledTransferRecords would show it.
func poisonPayload(payload any) {
	switch b := payload.(type) {
	case *netsim.Box[Transfer]:
		b.V = junkTransfer
	case *netsim.Box[TransferAck]:
		b.V = TransferAck{Token: 2}
	case *netsim.Box[TransferBatch]:
		items := b.V.Items[:cap(b.V.Items)]
		for i := range items {
			items[i] = junkTransfer
		}
		b.V.Origin, b.V.Token = s3, 1
	case *netsim.Box[TransferBatchAck]:
		b.V = TransferBatchAck{Token: 1, Failed: junkFailed}
	case *netsim.Box[Notify]:
		b.V = Notify{User: carol, ID: junkTransfer.Msg.ID, Server: s2}
	}
}

// The junk is built once, so the hook allocates nothing and the allocation
// budgets hold with it installed.
var (
	junkTransfer = Transfer{
		Kind:      TransferDeposit,
		Msg:       mail.Message{ID: mail.MessageID{Node: 666, Seq: 666}, From: bob, To: []names.Name{alice}, Subject: "poison", Body: "poison"},
		Recipient: alice, Origin: s2, Token: 1,
	}
	junkFailed = []int{0}
)

// ackProbe stands between the network and a server. It makes some batch acks
// report a processed item as failed (so the origin re-dispatches a copy the
// receiver already holds while the batch's other items settle), and around
// every ack whose token is no longer pending — the second ack of a transfer
// that was retried because the first was slow — it checks that no pending
// record moved: the ack's old record may by now be another transfer's.
type ackProbe struct {
	*Server // Crashed and Recovered pass through
	t       *testing.T
	rng     *rand.Rand
	late    *int
}

type pendingState struct {
	tok           uint64
	attempt, next int
	retryAt       sim.Time
	id            mail.MessageID
}

func (a ackProbe) snapshot() []pendingState {
	out := make([]pendingState, 0, len(a.pending))
	for tok, p := range a.pending {
		if p.tok != tok {
			a.t.Fatalf("s%d: record under token %d carries token %d", a.id, tok, p.tok)
		}
		out = append(out, pendingState{tok, p.attempt, p.next, p.retry.At(), p.msg.ID})
	}
	slices.SortFunc(out, func(x, y pendingState) int { return int(x.tok) - int(y.tok) })
	return out
}

func (a ackProbe) Receive(env netsim.Envelope) {
	switch ack := env.Payload.(type) {
	case *netsim.Box[TransferBatchAck]:
		if fb, ok := a.inflight[ack.V.Token]; ok && a.rng.Intn(3) == 0 {
			ack.V.Failed = append(ack.V.Failed, a.rng.Intn(len(fb.toks)))
		}
	case *netsim.Box[TransferAck]:
		if _, pending := a.pending[ack.V.Token]; !pending {
			*a.late++
			before := a.snapshot()
			a.Server.Receive(env)
			if after := a.snapshot(); !reflect.DeepEqual(before, after) {
				a.t.Fatalf("s%d: late ack for token %d changed the ledger:\nbefore %+v\nafter  %+v", a.id, ack.V.Token, before, after)
			}
			return
		}
	}
	a.Server.Receive(env)
}

// TestRecycledTransferRecords runs a seeded schedule in which acks race the
// retry timeout (extra delay pushes the round trip past it, so a transfer is
// sent twice and acked twice), destinations crash under transfers in flight,
// and — batched — acks come back with Failed indices. A settled transfer's
// record goes straight to the next transfer, so this is where a timer or an
// ack that still reached the old record would show: as a lost or doubled
// copy, as a moved ledger entry (ackProbe), or as a retry count other than
// the one the same schedule produced when every transfer allocated its own
// record — the counters below are recorded from the parent commit. The
// payloads' boxes are shared the same way, so each schedule runs twice: with
// recycled boxes cleared, as in production, and with them overwritten with
// garbage (poisonPayload) — same ledger, same counters.
func TestRecycledTransferRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate []func(*Config)
		poison bool
		want   string
	}{
		{"single", nil, false,
			"183 copies; transfers_out 496 retries 369 duplicate_deposits 117 deposits_local 204 relay_envelopes 496 batch_splits 0; late acks 61"},
		{"batched", []func(*Config){batched(4, 2*sim.Unit)}, false,
			"179 copies; transfers_out 511 retries 408 duplicate_deposits 157 deposits_local 206 relay_envelopes 464 batch_splits 37; late acks 55"},
		{"single, poisoned boxes", nil, true,
			"183 copies; transfers_out 496 retries 369 duplicate_deposits 117 deposits_local 204 relay_envelopes 496 batch_splits 0; late acks 61"},
		{"batched, poisoned boxes", []func(*Config){batched(4, 2*sim.Unit)}, true,
			"179 copies; transfers_out 511 retries 408 duplicate_deposits 157 deposits_local 206 relay_envelopes 464 batch_splits 37; late acks 55"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.mutate...)
			if !tc.poison {
				w.net.AfterRecycle(nil)
			}
			rng := rand.New(rand.NewSource(17))
			late := 0
			order := []graph.NodeID{s1, s2, s3}
			for _, id := range order {
				w.net.Deregister(id)
				w.net.MustRegister(id, ackProbe{w.servers[id], t, rng, &late})
			}
			type copyKey struct {
				id   mail.MessageID
				rcpt names.Name
			}
			owed := map[copyKey]bool{}
			users := []names.Name{alice, carol, bob}
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					from := order[rng.Intn(len(order))]
					to := []names.Name{users[rng.Intn(len(users))]}
					if rng.Intn(3) == 0 {
						to = append(to, users[rng.Intn(len(users))])
					}
					if id, err := w.servers[from].Submit(SubmitRequest{From: alice, To: to, Subject: "s", Body: "b"}); err == nil {
						for _, rcpt := range to {
							owed[copyKey{id, rcpt}] = true
						}
					}
				case op < 7: // the round trip S1/S2 ↔ S3 is 6 units, the retry timeout 8
					w.net.SetExtraDelay(order[rng.Intn(len(order))], sim.Time(rng.Intn(4))*sim.Unit)
				case op < 8:
					if id := order[rng.Intn(len(order))]; w.net.IsUp(id) {
						w.net.Crash(id)
					} else {
						w.net.Recover(id)
					}
				default:
					w.sched.RunFor(sim.Time(1+rng.Intn(6)) * sim.Unit)
				}
			}
			for _, id := range order {
				w.net.SetExtraDelay(id, 0)
				w.net.Recover(id)
			}
			w.sched.Run()

			// Exactly once: every committed copy is in one of its recipient's
			// mailboxes, no mailbox holds an ID twice, nothing is still owed.
			held := map[copyKey]int{}
			for _, id := range order {
				srv := w.servers[id]
				for _, u := range srv.Store().Users() {
					inBox := map[mail.MessageID]bool{}
					for _, m := range srv.Store().Peek(u) {
						if inBox[m.ID] {
							t.Errorf("s%d holds %v twice for %v", id, m.ID, u)
						}
						inBox[m.ID] = true
						held[copyKey{m.ID, u}]++
					}
				}
				if n := srv.PendingTransfers(); n != 0 {
					t.Errorf("s%d: %d transfers still pending at quiescence", id, n)
				}
			}
			for k := range owed {
				if held[k] == 0 {
					t.Errorf("copy of %v for %v was lost", k.id, k.rcpt)
				}
			}
			for k := range held {
				if !owed[k] {
					t.Errorf("copy of %v for %v was never submitted", k.id, k.rcpt)
				}
			}

			sum := func(name string) (n int64) {
				for _, id := range order {
					n += w.servers[id].Stats().Get(name)
				}
				return n
			}
			got := fmt.Sprintf("%d copies; transfers_out %d retries %d duplicate_deposits %d deposits_local %d relay_envelopes %d batch_splits %d; late acks %d",
				len(owed), sum("transfers_out"), sum("retries"), sum("duplicate_deposits"), sum("deposits_local"),
				sum("relay_envelopes"), sum("batch_splits"), late)
			if got != tc.want {
				t.Errorf("counters of the seeded schedule changed:\n got %s\nwant %s", got, tc.want)
			}
			if late == 0 || sum("retries") == 0 || sum("duplicate_deposits") == 0 {
				t.Error("the schedule must produce late acks, retries and duplicate deposits")
			}

			// The records really were shared, and an idle one holds nothing.
			for _, id := range order {
				srv := w.servers[id]
				if out := srv.Stats().Get("transfers_out"); out > 0 && int64(len(srv.freePending))*4 > out {
					t.Errorf("s%d made %d records for %d transfer attempts; they are not being reused", id, len(srv.freePending), out)
				}
				for _, p := range srv.freePending {
					if !reflect.DeepEqual(*p, pendingTransfer{}) {
						t.Errorf("s%d: idle record still holds %+v", id, *p)
					}
				}
				if n := len(srv.freeInflight) + len(srv.inflight); int64(n)*4 > srv.Stats().Get("relay_envelopes") && n > 1 {
					t.Errorf("s%d made %d batch records for %d envelopes; they are not being reused", id, n, srv.Stats().Get("relay_envelopes"))
				}
				for _, fb := range srv.freeInflight {
					if len(fb.toks) != 0 || !reflect.DeepEqual(*fb, inflightBatch{toks: fb.toks}) {
						t.Errorf("s%d: idle batch record still holds %+v", id, *fb)
					}
				}
			}
		})
	}
}

// TestAckRoundTripReusesRecord: once a server has settled one transfer, the
// next submit → transfer → ack round trip allocates the message's recipient
// list and the mailbox slot — no pending record, and no payload box.
func TestAckRoundTripReusesRecord(t *testing.T) {
	w := newWorld(t)
	s := w.servers[s1]
	req := SubmitRequest{From: alice, To: []names.Name{bob}, Subject: "s", Body: "b"}
	roundTrip := func() {
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
		w.sched.Run()
		w.servers[s3].Store().Drain(bob) // keep S3's side to one message slot
	}
	roundTrip()
	if len(s.freePending) != 1 {
		t.Fatalf("%d idle records after one settled transfer, want 1", len(s.freePending))
	}
	first := s.freePending[0]
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	if len(s.freePending) != 0 || len(s.pending) != 1 {
		t.Fatalf("second transfer left %d idle and %d pending records, want 0 and 1", len(s.freePending), len(s.pending))
	}
	for _, p := range s.pending {
		if p != first {
			t.Error("second transfer did not take the idle record")
		}
	}
	w.sched.Run()
	w.servers[s3].Store().Drain(bob)
	// accept's To copy, S3's []Stored slot.
	if n := testing.AllocsPerRun(100, roundTrip); n > 2 {
		t.Errorf("warmed submit → forward → deposit → ack: %v allocs, want ≤ 2 (4 with a box per payload, 5 with a pending record per transfer)", n)
	}
}

// TestTransferRoundTripTransitAllocs (budget): a warmed remote transfer —
// enqueue, dispatch, handleTransfer, ack, settle, single or batched —
// allocates nothing at all once the message exists. The copy routed is one the
// destination already holds, so the store's side (a mailbox slot) is out of
// the picture and what is left is transit: the record, the two envelopes and
// their payloads, the batch's items and its ledger entry.
func TestTransferRoundTripTransitAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate []func(*Config)
	}{
		{"single", nil},
		{"batched", []func(*Config){batched(2, sim.Unit)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.mutate...)
			s := w.servers[s1]
			msg := mail.Message{ID: mail.MessageID{Node: s1, Seq: 1}, From: alice, To: []names.Name{bob}, Body: "b"}
			roundTrip := func() {
				s.Route(msg, bob)
				s.Route(msg, bob) // fills a batch of two
				w.sched.Run()
				if s.PendingTransfers() != 0 {
					t.Fatalf("%d transfers unsettled", s.PendingTransfers())
				}
			}
			roundTrip() // routes cached, flights, boxes and records pooled, counters registered
			if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
				t.Errorf("two warmed transfer round trips allocate %v, want 0", n)
			}
			if got := w.servers[s3].MailboxLen(bob); got != 1 {
				t.Errorf("bob holds %d copies, want the 1 every round trip re-sent", got)
			}
		})
	}
}
