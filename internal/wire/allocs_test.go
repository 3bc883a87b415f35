package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// sinkConn is a connection that swallows what the server writes and says so.
type sinkConn struct {
	net.Conn
	wrote chan int
}

func (c sinkConn) Write(b []byte) (int, error)    { c.wrote <- len(b); return len(b), nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (sinkConn) Close() error                     { return nil }

func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, _, err := splitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestReadPathAllocs holds the single-frame read path to its budgets, layer
// by layer: a poll that finds nothing costs the server nothing — the reader
// binds the frame to its user's agent without making a string of the name —
// and a user's first poll costs the one record that holds the agent. What is
// left of an empty getmail is the client's: the Future on the way out.
func TestReadPathAllocs(t *testing.T) {
	reqPayload := framePayload(t, mustFrameRequest(t, Request{Op: "getmail", User: "R1.h1.alice"}, 7))
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := DecodeBinaryRequest(reqPayload); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeBinaryRequest(getmail): %v allocs, want ≤ 1 (the payload string)", n)
	}
	respFrame, err := AppendBinaryResponse(nil, binOpGetMail, 7, Response{OK: true, Polls: 3, LastChecking: 12345})
	if err != nil {
		t.Fatal(err)
	}
	respPayload := framePayload(t, respFrame)
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := DecodeBinaryResponse(respPayload); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeBinaryResponse(empty getmail): %v allocs, want ≤ 1", n)
	}
	regFrame, err := AppendBinaryResponse(nil, binOpRegister, 7, Response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	regPayload := framePayload(t, regFrame)
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := DecodeBinaryResponse(regPayload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBinaryResponse(register): %v allocs, want 0 (5 as JSON)", n)
	}

	// Server side, without a socket, through the function the reader calls
	// with every frame it has read: decode and bind, pooled work item through
	// the real queue and worker, the op, the response encoded into the
	// connection's buffer and flushed into a sink at the batch end.
	const fresh = 1000
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
	firsts := make([][]byte, fresh+1) // AllocsPerRun warms up with one run more
	for i := range firsts {
		user := fmt.Sprintf("R1.h2.u%d", i)
		pipelineRegister(t, c, user)
		firsts[i] = framePayload(t, mustFrameRequest(t, Request{Op: "getmail", User: user}, uint32(i)))
	}
	s.agents = make(map[names.Name]*userAgent, 2*fresh) // the table's growth is not a poll's cost
	sink := sinkConn{wrote: make(chan int, 1)}
	st := &connState{srv: s, conn: sink}
	q := s.pool.NewQueue(0, st)
	defer q.Close()
	serve := func(payload []byte) {
		if !s.servePayload(payload, q, st) {
			t.Fatal("request not queued")
		}
		<-sink.wrote // the batch end's flush: this request's response
	}
	// Every request here borrows a work item, an actor request and an output
	// buffer from a sync.Pool, which drops a quarter of what it is given under
	// the race detector: there the paths are run and the counts not judged.
	budget := func(what string, allocs, want float64) {
		if allocs > want && !raceDetector {
			t.Errorf("server-side %s: %v allocs, want ≤ %v", what, allocs, want)
		}
	}
	serve(reqPayload) // creates the agent, whose first walk visits every server
	budget("empty getmail, known user", testing.AllocsPerRun(1000, func() { serve(reqPayload) }), 0)
	next := 0
	budget("empty getmail, a user's first (the userAgent)", testing.AllocsPerRun(fresh, func() { serve(firsts[next]); next++ }), 1)
	if len(s.agents) != fresh+2 {
		t.Errorf("%d agents after %d first polls and alice's", len(s.agents), fresh+1)
	}

	// A single-frame submit costs its request — the payload string and the
	// recipients, which the reader parses straight into the names the cluster
	// keeps — and no ID string for the ack: 2 (3 while the recipients were
	// first a list of strings and then names; 4 at the parent of the commit
	// that bound getmail on the reader). With the getmail that retrieves the
	// copy it is still 2 (3, and 6 there): the poll adds nothing, and the
	// mailbox slot the deposit filled comes back when the response is out.
	submit := framePayload(t, mustFrameRequest(t, Request{
		Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob"}, Subject: "s", Body: strings.Repeat("b", 512)}, 9))
	bob := framePayload(t, mustFrameRequest(t, Request{Op: "getmail", User: "R1.h1.bob"}, 10))
	cycle := func() { serve(submit); serve(bob) }
	cycle()
	budget("submit + the getmail that retrieves it", testing.AllocsPerRun(1000, cycle), 2)
	budget("submit", testing.AllocsPerRun(1000, func() { serve(submit) }), 2)

	// A native register of a new user costs its request — one string for the
	// payload, which the user's name and the server names slice, and the
	// server list — and the directory's copy of the list (13 allocations as
	// JSON).
	regs := make([][]byte, fresh+1)
	for i := range regs {
		regs[i] = framePayload(t, mustFrameRequest(t, Request{Op: "register", User: fmt.Sprintf("R1.h3.r%d", i), Servers: []string{"s2", "s1"}}, uint32(i)))
	}
	next = 0
	budget("register, a new user", testing.AllocsPerRun(fresh, func() { serve(regs[next]); next++ }), 3)
	if got := s.cluster.Directory().Authority(names.MustParse(fmt.Sprintf("R1.h3.r%d", fresh))); len(got) != 2 || got[0] != "s2" || got[1] != "s1" {
		t.Errorf("the last user registered is on %q", got)
	}
}

// TestPipelineClientAllocs measures Pipeline.Do + Future.Response alone,
// against a hand-rolled peer that answers every frame from a fixed buffer
// and so adds nothing to the count. A getmail that finds one message costs
// the Future alone: the Future's own slot holds the message, and its text goes
// to the reader's arena. One that finds three costs their list besides.
func TestPipelineClientAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	msgs := make([]Message, 3)
	for i := range msgs {
		msgs[i] = Message{ID: fmt.Sprintf("m1-%d", i), From: "R1.h2.bob", Subject: "s", Body: strings.Repeat("b", 64)}
	}
	answers := map[string]Response{ // by the user a getmail names
		"R1.h1.alice": {OK: true},
		"R1.h1.one":   {OK: true, Messages: msgs[:1]},
		"R1.h1.three": {OK: true, Messages: msgs},
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cr := newConnReader(conn)
		defer cr.release()
		in, out := getFrameBuf(), make([]byte, 0, 1024)
		defer putFrameBuf(in)
		for {
			payload, err := cr.readFrame(in)
			if err != nil || len(payload) < 6 {
				return
			}
			out, _ = AppendBinaryResponse(out[:0], payload[0], binary.LittleEndian.Uint32(payload[1:]), answers[string(payload[6:])])
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Pipeline(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		user string
		want float64
	}{
		{"R1.h1.alice", 2},
		{"R1.h1.one", 1},
		{"R1.h1.three", 2},
	} {
		req := Request{Op: "getmail", User: tc.user}
		n := len(answers[tc.user].Messages)
		do := func() {
			f := p.Do(req)
			if _, err := f.Response(); err != nil {
				t.Fatal(err)
			}
			// A completed Future stays readable.
			if resp, err := f.Response(); err != nil || !resp.OK || len(resp.Messages) != n || n > 0 && resp.Messages[n-1] != msgs[n-1] {
				t.Fatalf("second Response: %+v, %v", resp, err)
			}
		}
		do()
		if got := testing.AllocsPerRun(1000, do); got > tc.want {
			t.Errorf("Pipeline.Do + Response, %d messages: %v allocs, want ≤ %v", n, got, tc.want)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushEarlyKeepsBufferPoolable: a batch of retrievals far larger than
// the output buffer may grow goes out in pieces, and the buffer the batch end
// gives back is still one the pool keeps. (Flushing only at the pooling limit
// let two 35 KB responses grow it past that limit, so every such batch threw
// its buffer away and the next one grew a new one from 4 KiB.)
func TestFlushEarlyKeepsBufferPoolable(t *testing.T) {
	s := newServer(t)
	sink := sinkConn{wrote: make(chan int, 16)}
	st := &connState{srv: s, conn: sink}
	batch := make([]mail.Stored, 64)
	for i := range batch {
		batch[i].ID = mail.MessageID{Node: 1, Seq: uint64(i + 1)}
		batch[i].Body = strings.Repeat("b", 512)
	}
	for round := 0; round < 3; round++ {
		total := 0
		for i := 0; i < 4; i++ {
			st.respond(binOpGetMail, uint32(i), Response{OK: true, stored: batch})
			if c := cap(*st.out); c > connReaderBufSize {
				t.Fatalf("round %d: output buffer grew to %d bytes, past what the pool keeps", round, c)
			}
		}
		st.Run()
		for len(sink.wrote) > 0 {
			total += <-sink.wrote
		}
		if total < 4*64*512 {
			t.Fatalf("round %d: %d bytes written, want four full responses", round, total)
		}
	}
}
