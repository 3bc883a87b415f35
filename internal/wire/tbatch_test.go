package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mailerr"
)

func TestSubmitBatchRoundTrip(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	for _, u := range []string{"R1.h1.alice", "R1.h2.bob"} {
		if err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Do(Request{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{
		{To: []string{"R1.h2.bob"}, Subject: "one"},
		{To: []string{"R1.h2.bob"}, Subject: "two"},
		{To: []string{"R1.h2.bob", "R1.h1.alice"}, Subject: "three"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 3 || len(resp.Failed) != 0 {
		t.Fatalf("ids = %v, failed = %+v, want 3 IDs and no failure", resp.IDs, resp.Failed)
	}
	for i, id := range resp.IDs {
		if id == "" {
			t.Errorf("msg %d has no ID", i)
		}
	}
	msgs, err := c.GetMail("R1.h2.bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Errorf("bob retrieved %d messages, want 3", len(msgs))
	}
}

// TestSubmitBatchPartialFailure: one item addressed to a user with no
// authority list fails with a typed per-item error; the good items land.
func TestSubmitBatchPartialFailure(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(Request{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{
		{To: []string{"R1.h1.alice"}, Subject: "good"},
		{To: []string{"R1.h9.ghost"}, Subject: "bad"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].Index != 1 || resp.Failed[0].Code != mailerr.CodeUnknownUser {
		t.Errorf("failed = %+v, want item 1 failing with %s", resp.Failed, mailerr.CodeUnknownUser)
	}
	if len(resp.IDs) != 2 || resp.IDs[0] == "" {
		t.Fatalf("ids = %v, want good item submitted", resp.IDs)
	}
	if resp.IDs[1] != "" {
		t.Errorf("failed item got ID %q", resp.IDs[1])
	}
	msgs, err := c.GetMail("R1.h1.alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Errorf("alice retrieved %d messages, want 1", len(msgs))
	}
}

// TestTBatchPartialItemKeepsID: an item that reached one recipient and not
// the other answers with its ID, and its failure names the recipient it
// missed; alice holds it once, under that ID.
func TestTBatchPartialItemKeepsID(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	msgs := []BatchMsg{{To: []string{"R1.h1.alice", "R1.h9.ghost"}, Subject: "partial"}}
	resp, err := c.Do(Request{Op: "tbatch", From: "R1.h1.alice", Msgs: msgs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 1 || resp.IDs[0] == "" {
		t.Fatalf("ids = %q, want the partly delivered item's ID", resp.IDs)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].Index != 0 || resp.Failed[0].Code != mailerr.CodeUnknownUser ||
		!strings.Contains(resp.Failed[0].Error, "R1.h9.ghost") || strings.Contains(resp.Failed[0].Error, "alice") {
		t.Fatalf("failed = %+v, want item 0 failing for R1.h9.ghost alone", resp.Failed)
	}
	got, err := c.GetMail("R1.h1.alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != resp.IDs[0] {
		t.Fatalf("alice holds %+v, want one copy of %s", got, resp.IDs[0])
	}
}

// TestTypedErrorsOverWire: taxonomy codes survive the TCP hop — the client
// reconstructs errors that match mailerr sentinels, not just strings.
func TestTypedErrorsOverWire(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if _, err := c.GetMail("R1.h9.nobody"); !errors.Is(err, mailerr.ErrUnknownUser) {
		t.Errorf("getmail unknown user: %v does not match mailerr.ErrUnknownUser", err)
	}
}

// TestDoContextCancelled: a cancelled context fails the request with the
// taxonomy's timeout error before anything hits the wire.
func TestDoContextCancelled(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DoContext(ctx, Request{Op: "status"}); !errors.Is(err, mailerr.ErrTimeout) {
		t.Errorf("DoContext(cancelled) = %v, want mailerr.ErrTimeout", err)
	}
	// The client survives: a live context works on the same connection.
	if _, err := c.Status(); err != nil {
		t.Fatalf("status after cancelled request: %v", err)
	}
}

// TestDoContextDeadlineCapsTimeout: a context deadline earlier than
// options.timeout wins, so a hung server fails the request at the context's
// pace.
func TestDoContextDeadlineCapsTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	c, err := dialOptions(ln.Addr().String(), options{timeout: 30 * time.Second, retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.DoContext(ctx, Request{Op: "status"})
	if err == nil {
		t.Fatal("request against hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("request took %v, want ~100ms (context deadline ignored)", elapsed)
	}
}
