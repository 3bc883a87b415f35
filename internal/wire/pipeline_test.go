package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipelineRegister registers sender and recipients through a plain client.
func pipelineRegister(t *testing.T, c *Client, users ...string) {
	t.Helper()
	for _, u := range users {
		if err := c.Register(u); err != nil {
			t.Fatalf("register %s: %v", u, err)
		}
	}
}

// TestPipelineBinaryBurst drives a pipelined burst of submits and checks
// every future completes with a distinct ID.
func TestPipelineBinaryBurst(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")

	p, err := c.Pipeline(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i] = p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s"+strconv.Itoa(i), "body")
	}
	ids := make(map[string]bool, n)
	for i, f := range futs {
		resp, err := f.Response()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if resp.ID == "" || ids[resp.ID] {
			t.Fatalf("future %d: id %q (duplicate or empty)", i, resp.ID)
		}
		ids[resp.ID] = true
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	msgs, err := c.GetMail("R1.h1.bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n {
		t.Fatalf("delivered %d of %d", len(msgs), n)
	}
}

// TestPipelineOrdering pins the worker-pool guarantee the auditors rely on:
// one connection's submits execute in submission order even when pipelined.
// Subjects carry the submission index; the recipient's mailbox (deposit
// order per server) must list them in order.
func TestPipelineOrdering(t *testing.T) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1"}, ServerConfig{WireWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")

	p, err := c.Pipeline(context.Background(), 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i] = p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, strconv.Itoa(i), "b")
	}
	for i, f := range futs {
		if _, err := f.Response(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.GetMail("R1.h1.bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n {
		t.Fatalf("delivered %d of %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.Subject != strconv.Itoa(i) {
			t.Fatalf("position %d holds submit #%s: per-connection order broken", i, m.Subject)
		}
	}
}

// TestPipelineConcurrentProducers hammers one pipeline from many goroutines;
// run under -race this is the pipeline's data-race gate.
func TestPipelineConcurrentProducers(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")

	p, err := c.Pipeline(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const producers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := p.Submit("R1.h1.alice", []string{"R1.h1.bob"},
					fmt.Sprintf("g%d-%d", g, i), "b").Response()
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if resp.ID == "" {
					errs <- fmt.Errorf("g%d i%d: empty id", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := c.GetMail("R1.h1.bob"); len(msgs) != producers*per {
		t.Fatalf("delivered %d of %d", len(msgs), producers*per)
	}
}

// TestPipelineMixedVerbs interleaves submits, batches, status, and refused
// requests in one pipelined window.
func TestPipelineMixedVerbs(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")

	p, err := c.Pipeline(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "one", "b")
	fb := p.Do(Request{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{
		{To: []string{"R1.h1.bob"}, Subject: "two"},
		{To: []string{"R1.h1.bob"}, Subject: "three"},
	}})
	fstat := p.Do(Request{Op: "status"})
	fbad := p.Submit("R1.h1.alice", nil, "no recipients", "b")
	fmail := p.Do(Request{Op: "getmail", User: "R1.h1.bob"})

	if resp, err := fs.Response(); err != nil || resp.ID == "" {
		t.Fatalf("submit: id=%q err=%v", resp.ID, err)
	}
	if resp, err := fb.Response(); err != nil || len(resp.IDs) != 2 || len(resp.Failed) != 0 {
		t.Fatalf("tbatch: %+v err=%v", resp, err)
	}
	if resp, err := fstat.Response(); err != nil || resp.Status == nil {
		t.Fatalf("status: err=%v", err)
	}
	if _, err := fbad.Response(); err == nil || !strings.Contains(err.Error(), "no recipients") {
		t.Fatalf("refused submit: err=%v", err)
	}
	resp, err := fmail.Response()
	if err != nil {
		t.Fatalf("getmail: %v", err)
	}
	// The pipeline preserved order, so all three earlier messages are there.
	if len(resp.Messages) != 3 {
		t.Fatalf("getmail saw %d of 3 messages", len(resp.Messages))
	}
	if resp.Polls == 0 || resp.LastChecking == 0 {
		t.Fatalf("getmail polls=%d last_checking=%d: poll accounting missing",
			resp.Polls, resp.LastChecking)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineAfterClose pins the contract: Do after Close fails fast.
func TestPipelineAfterClose(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
	p, err := c.Pipeline(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b").Response(); err == nil {
		t.Fatal("Do after Close succeeded")
	}
	// The client itself remains usable on the same connection.
	if _, err := c.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b"); err != nil {
		t.Fatalf("client after pipeline close: %v", err)
	}
}

// TestPipelineServerGone: killing the server mid-burst fails every future
// with an error instead of hanging, and Close reports the failure.
func TestPipelineServerGone(t *testing.T) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1"}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dialOptions(s.Addr(), options{timeout: 2 * time.Second, retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h1.bob"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Pipeline(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 0, 64)
	futs = append(futs, p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b"))
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		f := p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b")
		futs = append(futs, f)
		if _, err := f.Response(); err != nil {
			break
		}
	}
	sawErr := false
	for _, f := range futs {
		if _, err := f.Response(); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no future failed after server shutdown")
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close reported success on a broken pipeline")
	}
}

// TestPipelineMalformedAnswerFailsItsFuture: the reader takes an answer's
// Future by its tag before it decodes the rest, so an answer that matches a
// request and then does not decode fails that request's Future too, with the
// decode error, and every later one.
func TestPipelineMalformedAnswerFailsItsFuture(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cr := newConnReader(conn)
		defer cr.release()
		in := getFrameBuf()
		defer putFrameBuf(in)
		payload, err := cr.readFrame(in)
		if err != nil {
			return
		}
		// A getmail answer of three messages that ends after the count.
		out, _ := sealAt(append([]byte{0, 0, 0, 0, binOpGetMail}, append(payload[1:5], 1, 3)...), 0)
		_, _ = conn.Write(out)
		_, _ = io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Pipeline(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(Request{Op: "getmail", User: "R1.h1.alice"}).Response()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errBadPayload) {
			t.Errorf("the malformed answer's Future: %v, want %v", err, errBadPayload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the Future of a malformed answer never completed")
	}
	if _, err := p.Do(Request{Op: "getmail", User: "R1.h1.alice"}).Response(); !errors.Is(err, errBadPayload) {
		t.Errorf("a request after the malformed answer: %v, want %v", err, errBadPayload)
	}
	if err := p.Close(); !errors.Is(err, errBadPayload) {
		t.Errorf("Close: %v, want %v", err, errBadPayload)
	}
}

// Submit pipelines one submit request.
func (p *Pipeline) Submit(from string, to []string, subject, body string) *Future {
	return p.Do(Request{Op: "submit", From: from, To: to, Subject: subject, Body: body})
}
