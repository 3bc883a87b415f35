package wire

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
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
	st := &connState{srv: s, conn: sink}
	q := s.pool.NewQueue(0, st)
	defer q.Close()
	cr := newConnReader(bytes.NewReader(frame))
	defer cr.release()
	framep := getFrameBuf()
	defer putFrameBuf(framep)
	if !s.serveFrame(cr, framep, q, st) {
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

// bytesSpan is the memory of b itself.
func bytesSpan(b []byte) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return span{lo, lo + uintptr(len(b))}
}

// decodedIDs lists the non-empty message IDs of a decoded answer.
func decodedIDs(resp Response) []string {
	var ids []string
	for _, id := range append([]string{resp.ID}, resp.IDs...) {
		if id != "" {
			ids = append(ids, id)
		}
	}
	for _, m := range resp.Messages {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestKeptIDPinsNoPayload: every message ID a decoded answer carries — a
// submit's, a tbatch's, each getmail and checkmail message's — is a copy in
// the decoder's idArena, never a piece of the payload string nor of the frame
// buffer, so a caller that keeps an ID keeps other IDs at most and never a
// body; the bodies are still pieces of the one payload string. An answer with
// no field but IDs makes no payload string: through a warmed arena a submit
// ack decodes with no allocation and a tbatch ack with its ID list alone.
func TestKeptIDPinsNoPayload(t *testing.T) {
	ids := make([]string, 3)
	msgs := make([]Message, len(ids))
	for i := range msgs {
		ids[i] = fmt.Sprintf("m1-%d", 1000+i)
		msgs[i] = Message{
			ID: ids[i], From: "R1.h2.bob", Subject: "s",
			Body: fmt.Sprintf("body %d ", i) + strings.Repeat("x", 512),
		}
	}
	type answer struct {
		name   string
		op     byte
		resp   Response
		allocs float64 // through a warmed arena
	}
	answers := []answer{
		{"submit", binOpSubmit, Response{OK: true, ID: ids[0]}, 0},
		// The failure's code and text make the payload string; the failed
		// item's slice entry and the list of failures are the other two.
		{"tbatch with a failed item", binOpTBatch, Response{OK: true, IDs: []string{ids[0], ids[1], ""},
			Failed: []BatchFailure{{Index: 2, Code: "unknown_user", Error: "no such user R1.h9.zed"}}}, 3},
	}
	for n := 0; n <= len(msgs); n++ {
		answers = append(answers, answer{fmt.Sprintf("tbatch of %d", n), binOpTBatch, Response{OK: true, IDs: ids[:n]}, float64(min(n, 1))})
		for _, op := range []byte{binOpGetMail, binOpCheckMail} {
			answers = append(answers, answer{fmt.Sprintf("op %d, %d messages", op, n), op,
				Response{OK: true, Messages: msgs[:n], Polls: 2}, float64(2 * min(n, 1))})
		}
	}
	var warm idArena
	for _, a := range answers {
		frame, err := AppendBinaryResponse(nil, a.op, 4, a.resp)
		if err != nil {
			t.Fatal(err)
		}
		payload := framePayload(t, frame)
		var fresh idArena
		resp, _, err := decodeBinaryResponse(payload, &fresh)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		got, want := decodedIDs(resp), decodedIDs(a.resp)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(resp.Messages) != len(a.resp.Messages) || fmt.Sprint(resp.Failed) != fmt.Sprint(a.resp.Failed) {
			t.Fatalf("%s: decoded %+v", a.name, resp)
		}
		arena, frameBuf := bytesSpan(fresh.chunk), bytesSpan(payload)
		var sp span // the payload string, when the answer made one
		switch {
		case len(resp.Messages) > 0:
			sp = payloadSpan(t, payload, resp.Messages[0].Body)
		case len(resp.Failed) > 0:
			sp = payloadSpan(t, payload, resp.Failed[0].Error)
		}
		for _, id := range got {
			if sp.holds(id) || frameBuf.holds(id) || !arena.holds(id) {
				t.Errorf("%s: ID %s is not in the arena (in the payload string: %v, in the frame: %v)", a.name, id, sp.holds(id), frameBuf.holds(id))
			}
		}
		for i, m := range resp.Messages {
			if m != msgs[i] {
				t.Fatalf("%s: message %d = %+v", a.name, i, m)
			}
			if !sp.holds(m.Body) || !sp.holds(m.From) {
				t.Errorf("%s: body %d is not a piece of the payload string", a.name, i)
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, _, err := decodeBinaryResponse(payload, &warm); err != nil {
				t.Fatal(err)
			}
		}); n > a.allocs {
			t.Errorf("%s through a warmed arena: %v allocs, want ≤ %v", a.name, n, a.allocs)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, _, err := DecodeBinaryResponse(payload); err != nil {
				t.Fatal(err)
			}
		}); n > a.allocs+1 {
			t.Errorf("%s through DecodeBinaryResponse: %v allocs, want ≤ %v (a fresh arena's chunk more)", a.name, n, a.allocs+1)
		}
	}
}

// TestPipelineKeptIDsHoldNoBodies is a deduplicating client on a Pipeline:
// 4 096 messages of 2 KB, each submitted and then read by a getmail of its
// own, and the caller keeps nothing but their IDs. What the heap holds for
// those is the IDs' arena chunks, some tens of bytes an ID; an ID that was a
// piece of its one-message payload held its body too, ≈ 2 KB.
func TestPipelineKeptIDsHoldNoBodies(t *testing.T) {
	const (
		msgs    = 4096
		window  = 16 // submit + getmail pairs queued before the first answer is read
		maxGrow = 32 // bytes per kept ID; a fresh 64 B chunk per answer is 64
		user    = "R1.h1.alice"
	)
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register(user, "s1"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Pipeline(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	to, body := []string{user}, strings.Repeat("b", 2<<10)
	// The connection's requests run in order, so each getmail finds exactly
	// the message its submit deposited.
	read := func(kept []string) {
		var fs [2 * window]*Future
		for i := 0; i < len(kept); i += window {
			for j := 0; j < window; j++ {
				fs[2*j] = p.Submit(user, to, "s", body)
				fs[2*j+1] = p.Do(Request{Op: "getmail", User: user})
			}
			for j := 0; j < window; j++ {
				if _, err := fs[2*j].Response(); err != nil {
					t.Fatal(err)
				}
				resp, err := fs[2*j+1].Response()
				if err != nil || len(resp.Messages) != 1 {
					t.Fatalf("message %d: getmail returned %d messages, %v", i+j, len(resp.Messages), err)
				}
				kept[i+j] = resp.Messages[0].ID
			}
		}
	}
	heap := func() uint64 {
		s.Cluster().Tracer().Reset() // the server's traces are not the client's to keep
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	read(make([]string, 256))
	kept := make([]string, msgs)
	h0 := heap()
	read(kept)
	h1 := heap()
	grow := (float64(h1) - float64(h0)) / msgs
	t.Logf("heap %d → %d bytes with %d IDs kept: %.1f B per ID", h0, h1, msgs, grow)
	if grow > maxGrow {
		t.Errorf("%.1f B retained per kept ID, want ≤ %d", grow, maxGrow)
	}
	distinct := make(map[string]bool, msgs)
	for _, id := range kept {
		distinct[id] = id != ""
	}
	if len(distinct) != msgs || !distinct[kept[0]] {
		t.Errorf("%d distinct IDs kept of %d messages: the IDs changed after they were handed out", len(distinct), msgs)
	}
}

// TestPipelineKeptBodyPinsOneChunk is a client on a Pipeline that keeps some
// messages: 4 096 messages of 2 KB, each submitted and then read by a getmail
// of its own, and the caller keeps the message of one answer in k. A kept
// message is its Future's own slot, its ID a piece of an ID chunk and its
// text a piece of the reader's text arena, in the copy of its answer: it pins
// that Future, that ID chunk and one text chunk, at most textChunkSize, and
// no other answer's messages. Each kept message is some text chunks away from
// the last, so the heap grows by at most a text chunk, an ID chunk and a
// Future per kept message, and each reads what it read when its answer came.
func TestPipelineKeptBodyPinsOneChunk(t *testing.T) {
	const (
		msgs   = 4096
		k      = 64 // answers read per kept message: ≈ 8 text chunks
		window = 16
		user   = "R1.h1.alice"
	)
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register(user, "s1"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Pipeline(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	to, body := []string{user}, strings.Repeat("b", 2<<10)
	read := func(kept [][]Message) {
		var fs [2 * window]*Future
		for i := 0; i < len(kept)*k; i += window {
			for j := 0; j < window; j++ {
				fs[2*j] = p.Submit(user, to, strconv.Itoa(i+j), body)
				fs[2*j+1] = p.Do(Request{Op: "getmail", User: user})
			}
			for j := 0; j < window; j++ {
				if _, err := fs[2*j].Response(); err != nil {
					t.Fatal(err)
				}
				resp, err := fs[2*j+1].Response()
				if err != nil || len(resp.Messages) != 1 || resp.Messages[0].Subject != strconv.Itoa(i+j) {
					t.Fatalf("message %d: getmail returned %+v, %v", i+j, resp.Messages, err)
				}
				if (i+j)%k == 0 {
					kept[(i+j)/k] = resp.Messages
				}
			}
		}
	}
	heap := func() uint64 {
		s.Cluster().Tracer().Reset()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	read(make([][]Message, 4))
	kept := make([][]Message, msgs/k)
	h0 := heap()
	read(kept)
	h1 := heap()
	grow := (float64(h1) - float64(h0)) / float64(len(kept))
	t.Logf("heap %d → %d bytes with %d messages kept: %.0f B per message", h0, h1, len(kept), grow)
	if limit := textChunkSize + idChunkSize + int(unsafe.Sizeof(Future{})); grow > float64(limit) {
		t.Errorf("%.0f B retained per kept message, want ≤ %d (a text chunk, an ID chunk, a Future)", grow, limit)
	}
	for i, m := range kept {
		if m[0].Subject != strconv.Itoa(i*k) || m[0].Body != body {
			t.Fatalf("kept message %d reads subject %q: it changed after it was handed out", i*k, m[0].Subject)
		}
	}
}

// TestIDArenaNeverRewrites: IDs handed out from an arena's chunks up to its
// first full-size one read the same while the arena goes on decoding — into
// fresh chunks, one of them an ID longer than a chunk — and another goroutine
// reads them meanwhile, as a Pipeline's caller reads what its reader decoded.
// Under the race detector this also shows that copying behind a handed-out ID
// never writes to it.
func TestIDArenaNeverRewrites(t *testing.T) {
	const more = 10_000
	firstID := func(seq int) string {
		if seq == more/2 {
			return "m1-" + strings.Repeat("9", idChunkSize)
		}
		return fmt.Sprintf("m%d-%d", 1+seq%7, 3*seq)
	}
	answer := func(seq int) []byte {
		msgs := make([]Message, 1+seq%3)
		for i := range msgs {
			msgs[i] = Message{ID: fmt.Sprintf("m%d-%d", 1+seq%7, 3*seq+i), From: "R1.h2.bob", Body: "b"}
		}
		msgs[0].ID = firstID(seq)
		frame, err := AppendBinaryResponse(nil, binOpGetMail, uint32(seq), Response{OK: true, Messages: msgs})
		if err != nil {
			t.Fatal(err)
		}
		return framePayload(t, frame)
	}
	var (
		a          idArena
		kept, want []string
		full       *byte // the first chunk of idChunkSize
		seq        int
	)
	for ; ; seq++ {
		if seq == 1000 {
			t.Fatalf("%d answers decoded and no full-size chunk filled: chunk %d of %d bytes", seq, len(a.chunk), cap(a.chunk))
		}
		resp, _, err := decodeBinaryResponse(answer(seq), &a)
		if err != nil {
			t.Fatal(err)
		}
		if full == nil && cap(a.chunk) == idChunkSize {
			full = unsafe.SliceData(a.chunk)
		}
		if full != nil && unsafe.SliceData(a.chunk) != full {
			break // that chunk is full: this answer's IDs may span two
		}
		for _, m := range resp.Messages {
			kept, want = append(kept, m.ID), append(want, strings.Clone(m.ID))
		}
	}
	payloads := make([][]byte, more)
	for i := range payloads {
		payloads[i] = answer(seq + 1 + i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, payload := range payloads {
			resp, _, err := decodeBinaryResponse(payload, &a)
			if err != nil || resp.Messages[0].ID != firstID(seq+1+i) {
				t.Errorf("decode %d: %v, %+v", i, err, resp.Messages)
				return
			}
		}
	}()
	same := func() bool {
		for i := range kept {
			if kept[i] != want[i] {
				t.Errorf("ID %d reads %q, was %q", i, kept[i], want[i])
				return false
			}
		}
		return true
	}
	for decoding := true; decoding && same(); {
		select {
		case <-done:
			decoding = false
		default:
		}
	}
	<-done
	if !t.Failed() {
		same()
	}
	if len(kept) < 100 {
		t.Errorf("the chunks up to the first full-size one held %d IDs, want some hundred", len(kept))
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
