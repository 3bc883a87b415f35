package livenet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
)

// deposit is one copy's DepositBatch, as depositFailover sends it.
func deposit(s *Server, msg mail.Message, rcpt names.Name) error {
	return s.DepositBatch([]mailstore.Copy{{User: rcpt, Msg: msg}})
}

func TestDepositBatch(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Server("s1")
	items := []mailstore.Copy{
		{Msg: mail.Message{ID: mail.MessageID{Node: 1, Seq: 1}, Body: "a"}, User: alice},
		{Msg: mail.Message{ID: mail.MessageID{Node: 1, Seq: 2}, Body: "b"}, User: alice},
		{Msg: mail.Message{ID: mail.MessageID{Node: 1, Seq: 1}, Body: "a"}, User: alice}, // dup
		{Msg: mail.Message{ID: mail.MessageID{Node: 1, Seq: 3}, Body: "c"}, User: bob},
	}
	if err := s1.DepositBatch(items); err != nil {
		t.Fatal(err)
	}
	if got := s1.Deposits(); got != 3 {
		t.Errorf("deposits = %d, want 3 (duplicate suppressed)", got)
	}
	for i, want := range []bool{true, true, false, true} {
		if items[i].Fresh != want {
			t.Errorf("copy %d: Fresh = %v, want %v", i, items[i].Fresh, want)
		}
	}
	if n, _ := s1.MailboxLen(alice); n != 2 {
		t.Errorf("alice mailbox = %d, want 2", n)
	}
	if b, _ := s1.StoredBytes(); b != 3 {
		t.Errorf("StoredBytes = %d, want 3", b)
	}
	s1.Crash()
	if err := s1.DepositBatch(items[:1]); !errors.Is(err, ErrServerDown) {
		t.Errorf("DepositBatch on crashed server err = %v, want ErrServerDown", err)
	}
	if !errors.Is(s1.DepositBatch(items[:1]), mailerr.ErrServerDown) {
		t.Error("DepositBatch error does not match the mailerr taxonomy")
	}
}

// TestSpoolDrainsBatches: spool many copies during a total outage, recover,
// and verify the worker drained them in coalesced DepositBatch rounds.
func TestSpoolDrainsBatches(t *testing.T) {
	c := newCluster(t)
	if err := c.EnableSpool(SpoolConfig{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"s1", "s2", "s3"} {
		s, _ := c.Server(n)
		s.Crash()
	}
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := c.Submit(bob, []names.Name{alice}, fmt.Sprintf("m%d", i), "x"); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := c.Snapshot().Counters["submit_spooled"]; got != n {
		t.Fatalf("submit_spooled = %d, want %d", got, n)
	}
	s1, _ := c.Server("s1")
	s1.Recover()
	deadline := time.Now().Add(5 * time.Second)
	for c.SpoolDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d := c.SpoolDepth(); d != 0 {
		t.Fatalf("spool depth = %d after recovery, want 0", d)
	}
	m := c.Snapshot().Counters
	if m["spool_redelivered"] != n {
		t.Errorf("spool_redelivered = %d, want %d", m["spool_redelivered"], n)
	}
	if m["spool_batch_drains"] == 0 {
		t.Error("spool never used DepositBatch (spool_batch_drains = 0)")
	}
	if m["spool_batch_msgs"] < 2 {
		t.Errorf("spool_batch_msgs = %d, want >= 2", m["spool_batch_msgs"])
	}
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.GetMail(); len(got) != n {
		t.Errorf("alice retrieved %d messages, want %d", len(got), n)
	}
}

func TestSubmitContextCancelled(t *testing.T) {
	c := newCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.SubmitContext(ctx, bob, []names.Name{alice}, "s", "b")
	if !errors.Is(err, mailerr.ErrTimeout) {
		t.Fatalf("SubmitContext(cancelled) err = %v, want mailerr.ErrTimeout", err)
	}
	// No copy must have been committed for the cancelled submission.
	a, errAgent := c.NewAgent(alice)
	if errAgent != nil {
		t.Fatal(errAgent)
	}
	if got := a.GetMail(); len(got) != 0 {
		t.Errorf("cancelled submit delivered %d messages", len(got))
	}
}

func TestSubmitContextLive(t *testing.T) {
	c := newCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.SubmitContext(ctx, bob, []names.Name{alice}, "s", "b"); err != nil {
		t.Fatalf("SubmitContext err = %v", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Server("s1")
	s1.Crash()
	if err := deposit(s1, mail.Message{ID: mail.MessageID{Node: 1, Seq: 9}}, alice); !errors.Is(err, mailerr.ErrServerDown) {
		t.Errorf("Deposit on crashed server: %v does not match mailerr.ErrServerDown", err)
	}
	unknown := names.MustParse("R1.h9.ghost")
	if _, err := c.NewAgent(unknown); !errors.Is(err, mailerr.ErrUnknownUser) {
		t.Errorf("NewAgent(unknown): %v does not match mailerr.ErrUnknownUser", err)
	}
}
