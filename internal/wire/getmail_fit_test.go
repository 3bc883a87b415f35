package wire

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// fillMailbox submits n messages of 1 KB to one user, 100 to a tbatch, and
// returns their IDs in submission order.
func fillMailbox(t *testing.T, c *Client, from, to string, n int) []string {
	t.Helper()
	var ids []string
	for len(ids) < n {
		batch := make([]BatchMsg, 0, 100)
		for i := 0; i < 100 && len(ids)+len(batch) < n; i++ {
			k := len(ids) + len(batch)
			batch = append(batch, BatchMsg{To: []string{to}, Subject: fmt.Sprintf("s%d", k), Body: strings.Repeat("x", 1024)})
		}
		resp, err := c.Do(Request{Op: "tbatch", From: from, Msgs: batch})
		if err != nil || len(resp.Failed) != 0 {
			t.Fatal(err, resp.Failed)
		}
		ids = append(ids, resp.IDs...)
	}
	return ids
}

// TestGetMailOversizedBatchArrivesInParts: a mailbox holding more than one
// response can carry is handed out over several getmails — every ID exactly
// once, in order, no response an error — and over several checkmails on its
// first authority server, where what does not fit stays in the mailbox.
// Before each verb learnt to take only what it can carry, its first call
// drained the mailbox and answered "response too large".
func TestGetMailOversizedBatchArrivesInParts(t *testing.T) {
	const n = 1500 // × 1 KB: past MaxLine
	for _, verb := range []string{"binary", "checkmail-binary"} {
		t.Run(verb, func(t *testing.T) {
			s := newServer(t)
			c := newClient(t, s)
			pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
			want := fillMailbox(t, c, "R1.h1.alice", "R1.h1.bob", n)

			getmail := func() []Message {
				msgs, err := c.GetMail("R1.h1.bob")
				if err != nil {
					t.Fatalf("getmail: %v", err)
				}
				return msgs
			}
			checkmail := strings.HasPrefix(verb, "checkmail")
			if checkmail {
				getmail = func() []Message {
					resp, err := c.Do(Request{Op: "checkmail", User: "R1.h1.bob", Server: "s1"})
					if err != nil {
						t.Fatalf("checkmail: %v", err)
					}
					return resp.Messages
				}
			}
			var got []string
			responses := 0
			for {
				msgs := getmail()
				if len(msgs) == 0 {
					break
				}
				responses++
				for _, m := range msgs {
					got = append(got, m.ID)
				}
				if responses > n {
					t.Fatal("getmail never runs dry")
				}
			}
			if responses < 2 {
				t.Fatalf("%d messages of 1 KB arrived in %d response(s)", n, responses)
			}
			if len(got) != len(want) {
				t.Fatalf("retrieved %d messages over %d responses, submitted %d", len(got), responses, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("message %d is %s, want %s: parts out of order or repeated", i, got[i], want[i])
				}
			}
			if checkmail {
				snap := s.cluster.Snapshot()
				if q, n := snap.Gauges["s1.qdepth"], snap.Counters["s1.checks"]; q != 0 || n != int64(responses+1) {
					t.Errorf("after %d checkmails: s1.qdepth = %d, s1.checks = %d", responses+1, q, n)
				}
				return
			}
			s.agentMu.Lock()
			held := s.agents[names.MustParse("R1.h1.bob")].a.Inbox()
			s.agentMu.Unlock()
			if len(held) != 0 {
				t.Errorf("the drained agent still holds %d messages", len(held))
			}
		})
	}
}

// TestFitResponseFitsAndFills: what fitResponse lets through encodes within
// MaxLine, and is not much less than a response could have carried.
func TestFitResponseFitsAndFills(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"a", "z", " ", "<", "\"", "\\", "\n", "\x01", "é", "\u2028", "\xff", "日本"}
	text := func(n int) string {
		var b strings.Builder
		for b.Len() < n {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	msgs := make([]mail.Stored, 3000)
	for i := range msgs {
		msgs[i].Message = mail.Message{
			ID:      mail.MessageID{Node: graph.NodeID(rng.Intn(1000)), Seq: rng.Uint64() >> uint(rng.Intn(64))},
			From:    names.MustParse("R1.h1.alice"),
			Subject: text(rng.Intn(40)),
			Body:    text(rng.Intn(2000)),
		}
	}
	n := fitResponse(msgs)
	if n <= 0 || n >= len(msgs) {
		t.Fatalf("fitResponse = %d of %d", n, len(msgs))
	}
	frame, err := AppendBinaryResponse(nil, binOpGetMail, 1<<31, Response{OK: true, stored: msgs[:n], Polls: 1 << 40, LastChecking: 1 << 62})
	if err != nil {
		t.Fatalf("%d messages do not fit: %v", n, err)
	}
	if len(frame) < MaxLine*9/10 {
		t.Errorf("%d messages fill %d of %d bytes; the bound is too loose", n, len(frame), MaxLine)
	}
	if fitResponse(nil) != 0 || fitResponse(msgs[:1]) != 1 {
		t.Error("an empty batch fits whole, and so does one small message")
	}
	huge := []mail.Stored{{Message: mail.Message{Body: strings.Repeat("<", MaxLine)}}, msgs[0]}
	if n := fitResponse(huge); n != 1 {
		t.Errorf("a message no response can carry goes out alone: fitResponse = %d, want 1", n)
	}
}
