package wire

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
)

// span is the memory of one decoded payload string, found from a field whose
// place in the payload is known: the decoders make one string per payload and
// slice every field out of it.
type span struct{ lo, hi uintptr }

// payloadSpan locates the payload string that field was sliced from. field
// must occur once in payload.
func payloadSpan(t *testing.T, payload []byte, field string) span {
	t.Helper()
	off := bytes.Index(payload, []byte(field))
	if off < 0 || bytes.Count(payload, []byte(field)) != 1 {
		t.Fatalf("field %.20q does not occur exactly once in the payload", field)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(field))) - uintptr(off)
	return span{lo, lo + uintptr(len(payload))}
}

func (p span) holds(s string) bool {
	at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return len(s) > 0 && at >= p.lo && at < p.hi
}

// TestMailboxKeyDoesNotAliasFrame sends a tbatch frame for a user without a
// mailbox down the server's read path and looks at what the delivery left
// behind. The buffered message's fields are pieces of the frame's payload
// string — that is the codec's one-string decode, and mail that is waiting
// may hold its frame — but the mailbox it created, which stays when the mail
// is gone, must be owned by a name that is not: a piece of the frame there
// kept every new user's first frame alive whole.
func TestMailboxKeyDoesNotAliasFrame(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	if err := newClient(t, s).Register("R1.h1.alice", "s1"); err != nil {
		t.Fatal(err)
	}
	first := "zanzibar " + strings.Repeat("first body ", 400)
	frame := mustFrameRequest(t, Request{Op: "tbatch", From: "R1.h2.bob", Msgs: []BatchMsg{
		{To: []string{"R1.h1.alice"}, Subject: "one", Body: first},
		{To: []string{"R1.h1.alice"}, Subject: "two", Body: strings.Repeat("second body ", 400)},
	}}, 9)

	sink := sinkConn{wrote: make(chan int, 1)}
	st := &connState{srv: s, conn: sink, binary: true}
	q := s.pool.NewQueue(0, st)
	defer q.Close()
	cr := newConnReader(bytes.NewReader(frame))
	defer cr.release()
	framep := getFrameBuf()
	defer putFrameBuf(framep)
	if !s.serveBinaryFrame(cr, framep, q, st) {
		t.Fatal("frame not served")
	}
	<-sink.wrote

	srv, _ := s.Cluster().Server("s1")
	owners, err := srv.Search([]string{"zanzibar"})
	if err != nil || len(owners) != 1 {
		t.Fatalf("Search = %v, %v; want the one mailbox", owners, err)
	}
	owner := owners[0]
	if owner.String() != "R1.h1.alice" {
		t.Fatalf("mailbox owner %v", owner)
	}
	stored, err := srv.CheckMail(owner)
	if err != nil || len(stored) != 2 {
		t.Fatalf("CheckMail = %d messages, %v", len(stored), err)
	}
	payload := payloadSpan(t, framePayload(t, frame), stored[0].Body)
	if to := stored[0].To[0]; !payload.holds(to.User) || !payload.holds(stored[1].Body) {
		t.Fatal("the buffered message does not alias the payload: this test cannot see what it is looking for")
	}
	for _, part := range []string{owner.Region, owner.Host, owner.User} {
		if payload.holds(part) {
			t.Errorf("mailbox owner's %q is a piece of the request frame", part)
		}
	}
}

// TestKeptIDDoesNotPinNeighbours: the IDs of a decoded response that carries
// several messages share one small string of their own, so a caller that
// keeps an ID keeps that string and not the payload with every body in it. A
// response with one message is left as it was: its ID pins only its own
// message, and decoding it costs no extra allocation.
func TestKeptIDDoesNotPinNeighbours(t *testing.T) {
	msgs := make([]Message, 3)
	for i := range msgs {
		msgs[i] = Message{
			ID: fmt.Sprintf("m1-%d", 1000+i), From: "R1.h2.bob", Subject: "s",
			Body: fmt.Sprintf("body %d ", i) + strings.Repeat("x", 512),
		}
	}
	for _, op := range []byte{binOpGetMail, binOpCheckMail} {
		for n := 1; n <= len(msgs); n++ {
			frame, err := AppendBinaryResponse(nil, op, 4, Response{OK: true, Messages: msgs[:n], Polls: 2})
			if err != nil {
				t.Fatal(err)
			}
			payload := framePayload(t, frame)
			resp, _, err := DecodeBinaryResponse(payload)
			if err != nil || len(resp.Messages) != n {
				t.Fatalf("op %d, %d messages: decoded %d, %v", op, n, len(resp.Messages), err)
			}
			sp := payloadSpan(t, payload, resp.Messages[0].Body)
			ids := ""
			for i, m := range resp.Messages {
				if m != msgs[i] {
					t.Fatalf("op %d, %d messages: message %d = %+v", op, n, i, m)
				}
				if !sp.holds(m.Body) || !sp.holds(m.From) {
					t.Fatalf("op %d, %d messages: body %d is not a piece of the payload string", op, n, i)
				}
				if got, want := sp.holds(m.ID), n == 1; got != want {
					t.Errorf("op %d, %d messages: ID %d inside the payload string: %v, want %v", op, n, i, got, want)
				}
				ids += m.ID
			}
			if n > 1 {
				// One string holds them all, back to back.
				whole := unsafe.String(unsafe.StringData(resp.Messages[0].ID), len(ids))
				if whole != ids {
					t.Errorf("op %d, %d messages: IDs are not one string: %q at the first ID's address, want %q", op, n, whole, ids)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, _, err := DecodeBinaryResponse(payload); err != nil {
					t.Fatal(err)
				}
			})
			if want := 2.0 + float64(min(n-1, 1)); allocs > want {
				t.Errorf("op %d, %d messages: %v allocs, want ≤ %v (payload string, []Message, the IDs' string)", op, n, allocs, want)
			}
		}
	}
}

// TestIngestRetainedFlat is the short form of the month-long soak: what the
// daemon keeps for a message it is done with. A durable 8-server cluster
// behind an in-process wire server takes deliveries of 64 messages (four
// 16-message tbatch frames) to a rotating set of users, each drained by one
// getmail before the next begins, so nothing is buffered when the heap is
// read, at 40 000 messages and again at 160 000. Every user has a mailbox
// and an agent well before the first reading; what grows between the two is
// per message — trace records (until the ring is full, which happens inside
// this window), duplicate memory, anything that aliases a frame. The parent
// of this change grew by 409 B a message here, 49 MB; this one by 89, of which
// the filling ring is some 70.
func TestIngestRetainedFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("160 000 messages through a durable cluster")
	}
	const (
		users    = 256
		batch    = 16
		delivery = 64
		first    = 40_000
		last     = 160_000
		maxGrow  = 96 // bytes per message
	)
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
	}
	s, err := NewServerWith("127.0.0.1:0", names, ServerConfig{
		Cluster: livenet.ClusterConfig{DataDir: t.TempDir(), Fsync: mailstore.FsyncNever, StoreShards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := newClient(t, s)
	user := make([]string, users)
	for u := range user {
		user[u] = fmt.Sprintf("R1.h%d.u%d", u%16, u)
		if err := c.Register(user[u], names[u%8], names[(u+1)%8]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Pipeline(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	body := strings.Repeat("b", 512)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sent := 0
	deliver := func(upTo int) {
		for ; sent < upTo; sent += delivery {
			to := []string{user[sent/delivery%users]}
			var futures []*Future
			for b := 0; b < delivery/batch; b++ {
				msgs := make([]BatchMsg, batch)
				for i := range msgs {
					msgs[i] = BatchMsg{To: to, Subject: "b", Body: body}
				}
				futures = append(futures, p.Do(Request{Op: "tbatch", From: user[0], Msgs: msgs}))
			}
			futures = append(futures, p.Do(Request{Op: "getmail", User: to[0]}))
			for i, f := range futures {
				resp, err := f.Response()
				if err != nil || len(resp.Failed) > 0 {
					t.Fatalf("delivery at message %d, request %d: %v, failed %v", sent, i, err, resp.Failed)
				}
				if i == len(futures)-1 && len(resp.Messages) != delivery {
					t.Fatalf("delivery at message %d: getmail returned %d messages, want %d", sent, len(resp.Messages), delivery)
				}
			}
		}
	}
	deliver(first)
	h0 := heap()
	deliver(last)
	h1 := heap()
	grow := (float64(h1) - float64(h0)) / float64(last-first)
	t.Logf("heap %d → %d bytes over %d messages: %.1f B per message", h0, h1, last-first, grow)
	if grow > maxGrow {
		t.Errorf("retained %.1f B per message, want ≤ %d", grow, maxGrow)
	}
}
