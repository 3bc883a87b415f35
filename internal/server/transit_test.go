package server

import (
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// Allocation budget (aim 1): a transfer attempt costs nothing. The route
// walk, the flight closure and event, and the retry closure and event that
// used to ride along (7 per attempt before PR 15) are gone, and the payload's
// box is the one the last dropped attempt gave back.
func TestDispatchAllocs(t *testing.T) {
	w := newWorld(t, mail.Retention{})
	// Both R1 servers down: every attempt from S3 flies blind, is dropped at
	// a dead destination, and re-arms the same retry record.
	w.net.Crash(s1)
	w.net.Crash(s2)
	s := w.servers[s3]
	if _, err := s.Submit(SubmitRequest{From: bob, To: []names.Name{alice}, Subject: "s", Body: "b"}); err != nil {
		t.Fatal(err)
	}
	var tok uint64
	for tok = range s.pending {
	}
	attempt := func() {
		s.dispatch(tok)
		w.sched.RunFor(4 * sim.Unit) // lands the flight; the retry stays armed
	}
	attempt()
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Errorf("server dispatch allocates %v per attempt, want 0", n)
	}
	if w.sched.Pending() != 1 {
		t.Errorf("%d events pending after repeated dispatch, want the one retry record", w.sched.Pending())
	}
}

// A deposit transfer walks the directory's stored list itself, not a copy —
// safe because SetAuthority replaces a list and never edits one: a transfer
// queued before a reconfiguration keeps the list it was queued with.
func TestPendingTransferSharesStoredAuthority(t *testing.T) {
	w := newWorld(t, mail.Retention{})
	s := w.servers[s2]
	stored := w.dirR1.Resolve(alice)
	s.enqueue(TransferDeposit, mail.Message{ID: mail.MessageID{Node: s2, Seq: 1}}, alice, stored)
	var p *pendingTransfer
	for _, p = range s.pending {
	}
	if &p.candidates[0] != &stored[0] {
		t.Error("enqueue copied the candidate list")
	}
	if err := w.dirR1.SetAuthority(alice, []graph.NodeID{s2}); err != nil {
		t.Fatal(err)
	}
	if want := []graph.NodeID{s1, s2}; !slices.Equal(p.candidates, want) || !slices.Equal(stored, want) {
		t.Errorf("list queued before SetAuthority became %v (stored %v), want %v", p.candidates, stored, want)
	}
	if got := w.dirR1.Resolve(alice); !slices.Equal(got, []graph.NodeID{s2}) {
		t.Errorf("Resolve after SetAuthority = %v, want [%d]", got, s2)
	}
}

// The Recovered hook also fires on a link restore while the server is up and
// its transfers still have live retry timers. Re-dispatching re-arms each
// transfer's own record — it replaces the timer, it does not add a second one
// that would later fire a spurious extra attempt.
func TestRedispatchReplacesRetryTimer(t *testing.T) {
	w := newWorld(t, mail.Retention{})
	s := w.servers[s2]
	s.enqueue(TransferDeposit, mail.Message{ID: mail.MessageID{Node: s2, Seq: 1}}, alice, w.dirR1.Resolve(alice))
	if w.sched.Pending() != 2 {
		t.Fatalf("%d events pending after one dispatch, want flight + retry", w.sched.Pending())
	}
	s.Recovered(w.sched.Now())
	if w.sched.Pending() != 3 {
		t.Errorf("%d events pending after the re-dispatch, want two flights + ONE retry", w.sched.Pending())
	}
	w.sched.Run()
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Errorf("alice holds %d copies at S1, want 1", got)
	}
	if got := s.Stats().Get("transfers_out"); got != 2 {
		t.Errorf("transfers_out = %d, want 2 (the dispatch and the re-dispatch, no timer-driven third)", got)
	}
	if s.PendingTransfers() != 0 || w.sched.Pending() != 0 {
		t.Errorf("%d transfers and %d events left over", s.PendingTransfers(), w.sched.Pending())
	}
}
