package wire

import (
	"context"
	"net"
	"strconv"
	"testing"
	"time"
)

// rawText dials addr by hand and returns, with the connection and its reader,
// a function that sends one text line and decodes the one line that answers
// it — a peer that knows nothing but newline-delimited JSON.
func rawText(t *testing.T, addr string) (net.Conn, *connReader, func(line string) Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	cr := newConnReader(conn)
	t.Cleanup(cr.release)
	return conn, cr, func(line string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		answer, err := cr.readLine()
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		resp, err := DecodeResponse(answer)
		if err != nil {
			t.Fatalf("%s: answered %q: %v", line, answer, err)
		}
		return resp
	}
}

// TestRawTextPeer drives every verb, tbatch and query included, from a raw
// socket that never says hello: the text framing is the whole protocol, not
// a floor some verbs sit above.
func TestRawTextPeer(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	_, _, do := rawText(t, s.Addr())
	ok := func(line string) Response {
		t.Helper()
		resp := do(line)
		if !resp.OK {
			t.Fatalf("%s: refused: %s", line, resp.Error)
		}
		return resp
	}
	ok(`{"op":"register","user":"R1.h1.alice","servers":["s1","s2"]}`)
	ok(`{"op":"register","user":"R1.h2.bob","servers":["s2"]}`)
	if resp := ok(`{"op":"submit","from":"R1.h2.bob","to":["R1.h1.alice"],"subject":"one","body":"the budget is late"}`); resp.ID == "" {
		t.Fatal("submit: no id")
	}
	resp := ok(`{"op":"tbatch","from":"R1.h2.bob","msgs":[{"to":["R1.h1.alice"],"subject":"two"},{"to":["R1.h9.ghost"]},{"to":["R1.h1.alice"],"subject":"three"}]}`)
	if len(resp.IDs) != 3 || resp.IDs[0] == "" || resp.IDs[1] != "" || resp.IDs[2] == "" {
		t.Fatalf("tbatch ids = %q", resp.IDs)
	}
	if len(resp.Failed) != 1 || resp.Failed[0].Index != 1 || resp.Failed[0].Code == "" {
		t.Fatalf("tbatch failed = %+v", resp.Failed)
	}
	resp = ok(`{"op":"query","query":"content=budget"}`)
	if len(resp.Matches) != 1 || resp.Matches[0] != "R1.h1.alice" || resp.QueryStats == nil {
		t.Fatalf("query: matches %q, stats %+v", resp.Matches, resp.QueryStats)
	}
	if resp = ok(`{"op":"checkmail","user":"R1.h2.bob","server":"s2"}`); len(resp.Messages) != 0 {
		t.Fatalf("checkmail found %d messages for a user nobody wrote to", len(resp.Messages))
	}
	ok(`{"op":"crash","server":"s1"}`)
	if resp = ok(`{"op":"status"}`); resp.Status == nil || len(resp.Status.Servers) != 3 || resp.Status.Servers[0].Up {
		t.Fatalf("status after crash: %+v", resp.Status)
	}
	ok(`{"op":"recover","server":"s1"}`)
	resp = ok(`{"op":"getmail","user":"R1.h1.alice"}`)
	if len(resp.Messages) != 3 || resp.Polls == 0 || resp.LastChecking == 0 {
		t.Fatalf("getmail: %d of 3 messages, polls=%d last_checking=%d", len(resp.Messages), resp.Polls, resp.LastChecking)
	}
	if resp = do(`{"op":"frobnicate"}`); resp.OK {
		t.Fatal("unknown op accepted")
	}
}

// TestHelloNegotiation pins the handshake: a hello that does not ask for
// frames — the legacy versioned one included — is answered ok and leaves the
// connection on text; hello{"binary":true} switches it, and nothing switches
// it back.
func TestHelloNegotiation(t *testing.T) {
	s := newServer(t)
	conn, cr, do := rawText(t, s.Addr())
	for _, hello := range []string{`{"op":"hello","version":2}`, `{"op":"hello"}`} {
		if resp := do(hello); !resp.OK || resp.Binary {
			t.Fatalf("%s answered %+v, want ok on text", hello, resp)
		}
		if resp := do(`{"op":"register","user":"R1.h1.alice"}`); !resp.OK {
			t.Fatalf("text request after %s: %+v", hello, resp)
		}
	}
	if resp := do(`{"op":"hello","binary":true}`); !resp.OK || !resp.Binary {
		t.Fatalf("binary hello answered %+v", resp)
	}
	// From here on the connection speaks frames, and a hello that does not
	// ask for them reports the framing instead of undoing it.
	frames, err := AppendBinaryRequest(nil, Request{Op: "hello"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frames, err = AppendBinaryRequest(frames, Request{Op: "getmail", User: "R1.h1.alice"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	if resp, tag := readBinary(t, cr); tag != 1 || !resp.OK || !resp.Binary {
		t.Fatalf("hello on frames: tag %d, %+v", tag, resp)
	}
	if resp, tag := readBinary(t, cr); tag != 2 || !resp.OK {
		t.Fatalf("getmail after the second hello: tag %d, %+v", tag, resp)
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
	if !c.BinaryFraming() {
		t.Fatal("expected binary framing for the fault burst")
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
