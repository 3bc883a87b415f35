package client

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

// poisonPayload is a netsim.AfterRecycle hook (installed by newWorld, and on
// one side of TestPoisonedPayloadsChangeNothing): every box the network hands
// back is overwritten with a plausible wrong payload where production leaves
// zeros. Correct code never looks — a box is filled again before it flies
// again — but a Host that kept the *Box[server.Notify] it was handed, instead
// of the value, would show its agent a junk alert.
func poisonPayload(payload any) {
	switch b := payload.(type) {
	case *netsim.Box[server.Notify]:
		b.V = server.Notify{User: junkTransfer.Recipient, ID: junkTransfer.Msg.ID, Server: 666}
	case *netsim.Box[server.Transfer]:
		b.V = junkTransfer
	case *netsim.Box[server.TransferAck]:
		b.V = server.TransferAck{Token: 1}
	}
}

var junkTransfer = server.Transfer{
	Kind:      server.TransferDeposit,
	Msg:       mail.Message{ID: mail.MessageID{Node: 666, Seq: 666}, From: names.MustParse("R1.h1.sender"), Subject: "poison", Body: "poison"},
	Recipient: names.MustParse("R1.h1.reader"), Origin: ms2, Token: 1, Attempt: 9,
}

// TestPoisonedPayloadsChangeNothing drives two identical worlds, one of them
// with every recycled box overwritten with garbage, through one seeded
// schedule of sends, crashes, recoveries and copies forced onto both
// authority servers, the reader logged in throughout so that every deposit
// alerts its host. Retrievals, counters and the alerts the agent holds must
// be the same on both sides, and every alert must name a message that was
// really sent.
func TestPoisonedPayloadsChangeNothing(t *testing.T) {
	alerts := 0
	for seed := int64(1); seed <= 10; seed++ {
		clean, poisoned := newMatrixWorld(t), newMatrixWorld(t)
		poisoned.net.AfterRecycle(poisonPayload)
		worlds := []*matrixWorld{clean, poisoned}
		for _, w := range worlds {
			if err := w.reader.Login(); err != nil {
				t.Fatal(err)
			}
			w.sched.Run()
		}
		rng := rand.New(rand.NewSource(seed))
		sent := 0
		for step := 0; step < 120; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				sent++
				for _, w := range worlds {
					if w.net.IsUp(ms1) || w.net.IsUp(ms2) {
						w.send(t, fmt.Sprintf("s%d", sent))
					}
				}
			case op < 5: // the same ID on both servers, as a retried transfer leaves it
				id := mail.MessageID{Node: 77, Seq: uint64(step)}
				for _, w := range worlds {
					m := mail.Message{ID: id, From: w.sender.user, To: []names.Name{w.reader.user}, Subject: "dup"}
					for _, sid := range []graph.NodeID{ms1, ms2} {
						_ = w.net.Send(mh1, sid, new(netsim.FreeList[server.Transfer]).Box(server.Transfer{
							Kind: server.TransferDeposit, Msg: m, Recipient: w.reader.user, Origin: mh1, Token: uint64(sid),
						}))
					}
					w.sched.Run()
				}
			case op < 7:
				s := []graph.NodeID{ms1, ms2}[rng.Intn(2)]
				for _, w := range worlds {
					if w.net.IsUp(s) {
						w.net.Crash(s)
					} else {
						w.net.Recover(s)
					}
					w.sched.Run()
				}
			default:
				for _, w := range worlds {
					w.sched.RunFor(sim.Unit)
				}
				got, want := poisoned.reader.GetMail(), clean.reader.GetMail()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: retrieval diverged:\npoisoned %+v\nclean    %+v", ctx, got, want)
				}
			}
		}
		if gs, ws := poisoned.reader.Stats(), clean.reader.Stats(); gs != ws {
			t.Fatalf("seed %d: stats diverged: poisoned %+v, clean %+v", seed, gs, ws)
		}
		got, want := poisoned.reader.Notifications(), clean.reader.Notifications()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: alerts diverged:\npoisoned %+v\nclean    %+v", seed, got, want)
		}
		for _, n := range got {
			if n.User != poisoned.reader.user || (n.Server != ms1 && n.Server != ms2) || (n.ID.Node != ms1 && n.ID.Node != ms2 && n.ID.Node != 77) {
				t.Fatalf("seed %d: the agent holds an alert nobody sent: %+v", seed, n)
			}
		}
		alerts += len(got)
	}
	if alerts < 200 {
		t.Fatalf("the schedules raised %d alerts; too few to prove anything", alerts)
	}
}
