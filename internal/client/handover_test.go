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

// TestNewAgentAllocs: an idle user's agent is one allocation — it keeps the
// list it is given, holds its first seen IDs inline and has no
// PreviouslyUnavailableServers until a probe fails — and reading its list
// costs nothing.
func TestNewAgentAllocs(t *testing.T) {
	w := newMatrixWorld(t)
	host, lookup, list := w.reader.host, w.reader.servers, []graph.NodeID{ms1, ms2}
	var a *Agent
	if n := testing.AllocsPerRun(200, func() { a, _ = NewAgent(w.reader.user, host, lookup, list) }); n != 1 {
		t.Errorf("NewAgent: %v allocs, want 1 (4 with a list copy and two maps)", n)
	}
	if &a.Authority()[0] != &list[0] {
		t.Error("the agent copied the list it was given")
	}
	if n := testing.AllocsPerRun(200, func() { _ = a.Authority() }); n != 0 {
		t.Errorf("Authority: %v allocs, want 0", n)
	}
	// Retrievals over live servers and empty mailboxes leave it that way.
	if n := testing.AllocsPerRun(200, func() { a.TakeMail() }); n != 0 {
		t.Errorf("empty TakeMail: %v allocs, want 0", n)
	}
	if a.prevUnavail != nil {
		t.Error("PreviouslyUnavailableServers made without a failed probe")
	}
	w.net.Crash(ms1)
	a.TakeMail()
	if got := a.PreviouslyUnavailable(); len(got) != 1 || got[0] != ms1 {
		t.Errorf("PreviouslyUnavailable after a failed probe = %v, want [%d]", got, ms1)
	}
}

// TestTakeMailMatchesGetMail drives two identical worlds through one seeded
// schedule of sends, crashes, recoveries and copies forced onto the second
// authority server (what a retried transfer leaves behind). One reader
// retrieves with GetMail and never drops its inbox, so every poll copies into
// it; the other with TakeMail, so every poll starts from an empty inbox and
// adopts the slice the mailbox gave away. Every retrieval must return the same
// messages in the same order with the same counters, and a batch handed over
// is never written again, whatever the agent polls afterwards.
func TestTakeMailMatchesGetMail(t *testing.T) {
	batches, dups := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		copying, handing := newMatrixWorld(t), newMatrixWorld(t)
		worlds := []*matrixWorld{copying, handing}
		rng := rand.New(rand.NewSource(seed))
		type taken struct{ batch, snapshot []mail.Stored }
		var handed []taken
		sent := 0
		for step := 0; step < 80; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					sent++
					for _, w := range worlds {
						if w.net.IsUp(ms1) || w.net.IsUp(ms2) {
							w.send(t, fmt.Sprintf("s%d", sent))
						}
					}
				}
			case op < 5: // the same ID on both servers
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
				got, want := handing.reader.TakeMail(), copying.reader.GetMail()
				if len(got) != len(want) {
					t.Fatalf("%s: TakeMail returned %d messages, GetMail %d", ctx, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s: message %d: TakeMail %+v, GetMail %+v", ctx, i, got[i], want[i])
					}
				}
				if gs, ws := handing.reader.Stats(), copying.reader.Stats(); gs != ws {
					t.Fatalf("%s: stats diverged: TakeMail %+v, GetMail %+v", ctx, gs, ws)
				}
				if len(handing.reader.inbox) != 0 {
					t.Fatalf("%s: TakeMail left %d messages in the inbox", ctx, len(handing.reader.inbox))
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
		dups += copying.reader.Stats().Duplicates
	}
	if batches < 100 || dups < 20 {
		t.Fatalf("the schedules handed over %d batches and suppressed %d duplicates; too few to prove anything", batches, dups)
	}
}
