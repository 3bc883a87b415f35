package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mailerr"
)

// TestEveryVerbOverFrames drives every verb, tbatch and query included,
// through Client.Do: the connection speaks frames from its first byte, with
// no request first to switch it. A hot verb wrapped in a JSON frame is
// refused, and the connection serves the next frame.
func TestEveryVerbOverFrames(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	ok := func(req Request) Response {
		t.Helper()
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return resp
	}
	ok(Request{Op: "register", User: "R1.h1.alice", Servers: []string{"s1", "s2"}})
	ok(Request{Op: "register", User: "R1.h2.bob", Servers: []string{"s2"}})
	if resp := ok(Request{Op: "submit", From: "R1.h2.bob", To: []string{"R1.h1.alice"}, Subject: "one", Body: "the budget is late"}); resp.ID == "" {
		t.Fatal("submit: no id")
	}
	resp := ok(Request{Op: "tbatch", From: "R1.h2.bob", Msgs: []BatchMsg{
		{To: []string{"R1.h1.alice"}, Subject: "two"}, {To: []string{"R1.h9.ghost"}}, {To: []string{"R1.h1.alice"}, Subject: "three"}}})
	if len(resp.IDs) != 3 || resp.IDs[0] == "" || resp.IDs[1] != "" || resp.IDs[2] == "" {
		t.Fatalf("tbatch ids = %q", resp.IDs)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].Index != 1 || resp.Failed[0].Code == "" {
		t.Fatalf("tbatch failed = %+v", resp.Failed)
	}
	resp = ok(Request{Op: "query", Query: "content=budget"})
	if len(resp.Matches) != 1 || resp.Matches[0] != "R1.h1.alice" || resp.QueryStats == nil {
		t.Fatalf("query: matches %q, stats %+v", resp.Matches, resp.QueryStats)
	}
	if resp = ok(Request{Op: "checkmail", User: "R1.h2.bob", Server: "s2"}); len(resp.Messages) != 0 {
		t.Fatalf("checkmail found %d messages for a user nobody wrote to", len(resp.Messages))
	}
	ok(Request{Op: "crash", Server: "s1"})
	if resp = ok(Request{Op: "status"}); resp.Status == nil || len(resp.Status.Servers) != 3 || resp.Status.Servers[0].Up {
		t.Fatalf("status after crash: %+v", resp.Status)
	}
	ok(Request{Op: "recover", Server: "s1"})
	resp = ok(Request{Op: "getmail", User: "R1.h1.alice"})
	if len(resp.Messages) != 3 || resp.Polls == 0 || resp.LastChecking == 0 {
		t.Fatalf("getmail: %d of 3 messages, polls=%d last_checking=%d", len(resp.Messages), resp.Polls, resp.LastChecking)
	}
	if _, err := c.Do(Request{Op: "frobnicate"}); err == nil {
		t.Fatal("unknown op accepted")
	}

	conn, cr := rawConn(t, s.Addr())
	wrapped, err := appendFrame(nil, append(binary.LittleEndian.AppendUint32([]byte{binOpJSON}, 7),
		`{"op":"submit","from":"R1.h2.bob","to":["R1.h1.alice"],"subject":"wrapped"}`...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(wrapped, mustFrameRequest(t, Request{Op: "getmail", User: "R1.h1.alice"}, 8)...)); err != nil {
		t.Fatal(err)
	}
	if resp, tag := readOp(t, cr, int(binOpJSON)); resp.OK || tag != 7 {
		t.Fatalf("JSON-wrapped submit: tag %d, %+v", tag, resp)
	}
	if resp, tag := readOp(t, cr, int(binOpGetMail)); !resp.OK || tag != 8 || len(resp.Messages) != 0 {
		t.Fatalf("getmail behind the refused submit: tag %d, %+v", tag, resp)
	}
}

// TestTextPeerRefused: a peer that sends a JSON line has its first four bytes
// read as a frame length past MaxLine. It is answered with exactly one frame —
// ErrFrameTooLarge, code oversized — and the connection is closed, leaving no
// reader or worker goroutine behind.
func TestTextPeerRefused(t *testing.T) {
	s := newServer(t)
	goroutines := runtime.NumGoroutine()
	conn, cr := rawConn(t, s.Addr())
	if _, err := conn.Write([]byte(`{"op":"status"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	resp, tag := readBinary(t, cr)
	if resp.OK || tag != 0 || resp.Code != mailerr.CodeOversized || resp.Error != ErrFrameTooLarge.Error() {
		t.Fatalf("text line answered: tag %d, %+v", tag, resp)
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	if _, err := cr.readFrame(bp); !errors.Is(err, io.EOF) {
		t.Fatalf("after the answer: %v, want EOF", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		open := len(s.conns)
		s.mu.Unlock()
		if open == 0 && runtime.NumGoroutine() <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections served, %d goroutines after the hang-up, %d before", open, runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestCompatPipelinedBurstUnderFaults crashes and recovers a server in the
// middle of a pipelined binary burst, then audits exactly-once delivery:
// every acked submit is delivered exactly once, nothing unacked appears,
// and no ID is duplicated.
func TestCompatPipelinedBurstUnderFaults(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)   // pipelined submitter
	adm := newClient(t, s) // control plane
	if err := adm.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	if err := adm.Register("R1.h1.bob"); err != nil {
		t.Fatal(err)
	}

	p, err := c.Pipeline(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i] = p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, strconv.Itoa(i), "b")
		switch i {
		case n / 4: // crash the primary mid-burst
			if _, err := adm.Do(Request{Op: "crash", Server: "s1"}); err != nil {
				t.Fatal(err)
			}
		case n / 2: // and bring it back while the burst continues
			if _, err := adm.Do(Request{Op: "recover", Server: "s1"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked := map[string]int{}
	for i, f := range futs {
		resp, err := f.Response()
		if err != nil {
			// A submit may be refused while failover churns; it must then
			// not be delivered. Refusals carry no ID.
			continue
		}
		if resp.ID == "" {
			t.Fatalf("future %d: ok without id", i)
		}
		acked[resp.ID]++
		if acked[resp.ID] > 1 {
			t.Fatalf("server issued duplicate id %s", resp.ID)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no submit survived the fault window")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("pipeline close: %v", err)
	}

	// Settle, then audit the mailbox: delivered == acked, exactly once.
	deadline := time.Now().Add(5 * time.Second)
	delivered := map[string]int{}
	for {
		msgs, err := adm.GetMail("R1.h1.bob")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			delivered[m.ID]++
		}
		if len(delivered) >= len(acked) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for id, cnt := range delivered {
		if cnt != 1 {
			t.Errorf("message %s delivered %d times", id, cnt)
		}
		if acked[id] == 0 {
			t.Errorf("message %s delivered but never acked", id)
		}
	}
	for id := range acked {
		if delivered[id] == 0 {
			t.Errorf("acked message %s lost", id)
		}
	}
}
