package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawConn dials addr by hand and returns the connection and its reader: a
// peer that writes frames of its own making.
func rawConn(t *testing.T, addr string) (net.Conn, *connReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	cr := newConnReader(conn)
	t.Cleanup(cr.release)
	return conn, cr
}

// readBinary reads one response frame.
func readBinary(t *testing.T, cr *connReader) (Response, uint32) {
	t.Helper()
	return readOp(t, cr, -1)
}

// readOp reads one response frame and, unless op is negative, requires its op
// byte to be op.
func readOp(t *testing.T, cr *connReader, op int) (Response, uint32) {
	t.Helper()
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	payload, err := cr.readFrame(bp)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if op >= 0 && int(payload[0]) != op {
		t.Fatalf("answered under op %d, want %d", payload[0], op)
	}
	resp, tag, err := DecodeBinaryResponse(payload)
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	return resp, tag
}

func setLatency(s *Server, d time.Duration) {
	for _, n := range s.names {
		srv, _ := s.cluster.Server(n)
		srv.SetLatency(d)
	}
}

// TestCoalesceBurstSharesWrites: 64 pipelined empty getmails arriving in one
// segment are answered in a handful of socket writes, in request order — and
// a single request on the then idle connection is still answered at once, by
// a write of its own, with nothing else arriving to push it out.
func TestCoalesceBurstSharesWrites(t *testing.T) {
	s, addr, writes := countedServer(t, ServerConfig{WireWorkers: 1})
	pipelineRegister(t, newClient(t, s), "R1.h1.alice")
	// Each walk holds the worker for a moment, so the reader is always ahead
	// of it and the batches are as large as the arrival allows.
	setLatency(s, 2*time.Millisecond)
	conn, cr := rawConn(t, addr)

	const n = 64
	var burst []byte
	for tag := uint32(1); tag <= n; tag++ {
		var err error
		if burst, err = AppendBinaryRequest(burst, Request{Op: "getmail", User: "R1.h1.alice"}, tag); err != nil {
			t.Fatal(err)
		}
	}
	before := writes.Load()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for tag := uint32(1); tag <= n; tag++ {
		resp, got := readBinary(t, cr)
		if got != tag || !resp.OK || len(resp.Messages) != 0 {
			t.Fatalf("response %d: tag %d, %+v", tag, got, resp)
		}
	}
	if w := writes.Load() - before; w > 8 {
		t.Errorf("%d getmails cost the server %d writes, want ≤ 8", n, w)
	}

	before = writes.Load()
	one, err := AppendBinaryRequest(nil, Request{Op: "getmail", User: "R1.h1.alice"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(one); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, tag := readBinary(t, cr); tag != 99 || !resp.OK {
		t.Fatalf("lone request: tag %d, %+v", tag, resp)
	}
	if w := writes.Load() - before; w != 1 {
		t.Errorf("a lone request cost %d writes, want 1", w)
	}
}

// TestFlushErrorAnswersBeforeClose: input the reader cannot queue is answered
// — behind the responses already owed — before the server hangs up. The
// error answer is the last frame: nothing the worker still held comes after
// it, and nothing owed is dropped for it.
func TestFlushErrorAnswersBeforeClose(t *testing.T) {
	good, err := AppendBinaryRequest(nil, Request{Op: "getmail", User: "R1.h1.alice"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff
	malformed, err := appendFrame(nil, []byte{99, 5, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		tag        uint32
		bad        []byte
	}{
		{"bad CRC", "CRC mismatch", 0, badCRC},
		{"malformed payload", "malformed binary payload", 5, malformed},
		{"oversized frame", "frame exceeds", 0, []byte{0xff, 0xff, 0xff, 0x7f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			pipelineRegister(t, newClient(t, s), "R1.h1.alice")
			conn, cr := rawConn(t, s.Addr())
			if _, err := conn.Write(append(append([]byte(nil), good...), tc.bad...)); err != nil {
				t.Fatal(err)
			}
			resp, tag := readBinary(t, cr)
			if !resp.OK || tag != 1 {
				t.Fatalf("the getmail ahead of the bad input: tag %d, %+v", tag, resp)
			}
			resp, tag = readBinary(t, cr)
			if resp.OK || tag != tc.tag || !strings.Contains(resp.Error, tc.want) {
				t.Fatalf("error answer: tag %d, %+v", tag, resp)
			}
			bp := getFrameBuf()
			defer putFrameBuf(bp)
			if _, err := cr.readFrame(bp); err == nil {
				t.Fatal("connection still open after a framing error")
			}
		})
	}
}

// TestFlushStalledPeerClosesConnection: a client that sends requests and
// never reads. Once the socket buffers are full the buffered flush blocks,
// trips the write-stall timeout, and closes the connection, which releases
// the worker and the reader.
func TestFlushStalledPeerClosesConnection(t *testing.T) {
	s, addr, _ := countedServer(t, ServerConfig{WireWorkers: 1})
	s.writeStall = 200 * time.Millisecond
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	served := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	for deadline := time.Now().Add(5 * time.Second); served() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection never reached the server")
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.(writeCounter).Conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	s.mu.Unlock()

	// Status responses run to kilobytes each; these add up to far more than
	// the two small socket buffers hold.
	var reqs []byte
	for tag := uint32(1); tag <= 4000; tag++ {
		if reqs, err = AppendBinaryRequest(reqs, Request{Op: "status"}, tag); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(reqs); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The server may hang up while the tail is still being written.
		t.Logf("write: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); served() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalled connection still being served: the flush never timed out")
		}
	}
	// What the client finds when it finally reads is a closed connection,
	// not a hang.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	for {
		if _, err := conn.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("connection left open")
			}
			break
		}
	}
}

// TestWorkItemRecycledClean poisons the work-item pool, drives real traffic
// through it, and then empties it again. Every request must be served from
// its own fields alone (enqueue overwrites a recycled item completely), and
// no item may come back from a request still holding its body, its tag, its
// connection or the agent it was bound to.
func TestWorkItemRecycledClean(t *testing.T) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1"}, ServerConfig{WireWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
	ghost := &connState{srv: s}
	for i := 0; i < 64; i++ {
		workPool.Put(&work{st: ghost, tag: 0xdeadbeef, op: binOpCheckMail, req: Request{
			Op: "crash", Server: "s1", User: "R9.h9.poison", Body: "POISON", To: []string{"R1.h1.bob"}, Msgs: []BatchMsg{{Body: "POISON"}},
			agent: new(userAgent),
		}})
	}
	p, err := c.Pipeline(context.Background(), 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, strconv.Itoa(i), "body "+strconv.Itoa(i))
	}
	for i, f := range futs {
		if _, err := f.Response(); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	got, err := p.Do(Request{Op: "getmail", User: "R1.h1.bob"}).Response()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got.Messages) != n {
		t.Fatalf("delivered %d of %d", len(got.Messages), n)
	}
	for i, m := range got.Messages {
		if m.Subject != strconv.Itoa(i) || m.Body != "body "+strconv.Itoa(i) {
			t.Fatalf("message %d: %+v", i, m)
		}
	}
	for i := 0; i < 256; i++ {
		w := workPool.Get().(*work)
		if w.st == ghost {
			continue // a poisoned item no request drew
		}
		if w.st != nil || w.tag != 0 || w.op != 0 || w.req.Op != "" || w.req.Body != "" || w.req.To != nil || w.req.Msgs != nil || w.req.agent != nil {
			t.Fatalf("pooled work item still holds its request: %+v", *w)
		}
	}
}

// TestGetMailWalksInParallel: retrievals for different users do not queue
// behind one server-wide lock. N connections poll disjoint users while every
// poll takes 20 ms; with N workers the lot finishes in about one walk, not N.
func TestGetMailWalksInParallel(t *testing.T) {
	const n = 8
	s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2"}, ServerConfig{WireWorkers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = newClient(t, s)
		pipelineRegister(t, clients[i], "R1.h1.u"+strconv.Itoa(i))
	}
	const poll = 20 * time.Millisecond
	setLatency(s, poll)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if _, err := c.GetMail("R1.h1.u" + strconv.Itoa(i)); err != nil {
				t.Error(err)
			}
		}(i, c)
	}
	wg.Wait()
	// A first walk polls both servers (2 × poll); serialised, n of them
	// would take 2·n·poll.
	if took := time.Since(start); took > n*poll {
		t.Errorf("%d concurrent walks took %v; one takes about %v, serialised they take %v", n, took, 2*poll, 2*n*poll)
	}
}
