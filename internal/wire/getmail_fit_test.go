package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// fillMailbox submits n messages of about 1 KB to one user, 100 to a tbatch,
// and returns their IDs in submission order. Every seventh body is full of
// bytes JSON escapes sixfold, so a text response is much longer than the
// bodies it carries.
func fillMailbox(t *testing.T, c *Client, from, to string, n int) []string {
	t.Helper()
	var ids []string
	for len(ids) < n {
		batch := make([]BatchMsg, 0, 100)
		for i := 0; i < 100 && len(ids)+len(batch) < n; i++ {
			k := len(ids) + len(batch)
			fill := "x"
			if k%7 == 0 {
				fill = "<"
			}
			batch = append(batch, BatchMsg{To: []string{to}, Subject: fmt.Sprintf("s%d", k), Body: strings.Repeat(fill, 1024)})
		}
		got, err := c.SubmitBatch(from, batch)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	return ids
}

// TestGetMailOversizedBatchArrivesInParts: a mailbox holding more than one
// response can carry is handed out over several getmails — every ID exactly
// once, in order, no response an error — on the text framing, on the binary
// one, and for a JSON getmail wrapped in a binary frame; and over several
// checkmails on its first authority server, where what does not fit stays in
// the mailbox. Before each verb learnt to take only what it can carry, its
// first call drained the mailbox and answered "response too large".
func TestGetMailOversizedBatchArrivesInParts(t *testing.T) {
	const n = 1500 // × 1 KB: past MaxLine in any encoding
	for _, framing := range []string{"text", "binary", "json-in-binary", "checkmail-text", "checkmail-binary"} {
		t.Run(framing, func(t *testing.T) {
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
			checkmail := strings.HasPrefix(framing, "checkmail")
			if checkmail {
				getmail = func() []Message {
					resp, err := c.Do(Request{Op: "checkmail", User: "R1.h1.bob", Server: "s1"})
					if err != nil {
						t.Fatalf("checkmail: %v", err)
					}
					return resp.Messages
				}
			}
			switch framing {
			case "binary", "checkmail-binary":
				if err := c.Negotiate(context.Background()); err != nil {
					t.Fatal(err)
				}
			case "json-in-binary":
				conn, cr := rawBinary(t, s.Addr())
				getmail = func() []Message {
					frame := append([]byte{0, 0, 0, 0, binOpJSON}, binary.LittleEndian.AppendUint32(nil, 9)...)
					frame = append(frame, `{"op":"getmail","user":"R1.h1.bob"}`...)
					frame, err := sealAt(frame, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := conn.Write(frame); err != nil {
						t.Fatal(err)
					}
					resp, _ := readBinary(t, cr)
					if !resp.OK {
						t.Fatalf("getmail: %+v", resp)
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
				s1, _ := s.cluster.Server("s1")
				if q := s.cluster.Obs().Gauge("s1.qdepth").Value(); q != 0 || s1.Checks() != int64(responses+1) {
					t.Errorf("after %d checkmails: s1.qdepth = %d, s1.checks = %d", responses+1, q, s1.Checks())
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
// MaxLine in the encoding it was asked about, and is not much less than a
// response could have carried.
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
	for _, native := range []bool{true, false} {
		n := fitResponse(msgs, native)
		if n <= 0 || n >= len(msgs) {
			t.Fatalf("native=%v: fitResponse = %d of %d", native, n, len(msgs))
		}
		resp := Response{OK: true, stored: msgs[:n], Polls: 1 << 40, LastChecking: 1 << 62}
		var size int
		if native {
			frame, err := AppendBinaryResponse(nil, binOpGetMail, 1<<31, resp)
			if err != nil {
				t.Fatalf("native: %d messages do not fit: %v", n, err)
			}
			size = len(frame)
		} else {
			resp.Messages = wireMessages(resp.stored)
			js, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if size = len(js) + binHdrLen + 5 + binCRCLen; size > MaxLine { // as a line, or wrapped in a frame
				t.Fatalf("json: %d messages encode to %d bytes", n, size)
			}
		}
		if size < MaxLine*9/10 {
			t.Errorf("native=%v: %d messages fill %d of %d bytes; the bound is too loose", native, n, size, MaxLine)
		}
	}
	if fitResponse(nil, true) != 0 || fitResponse(msgs[:1], false) != 1 {
		t.Error("an empty batch fits whole, and so does one small message")
	}
	huge := []mail.Stored{{Message: mail.Message{Body: strings.Repeat("<", MaxLine)}}, msgs[0]}
	if n := fitResponse(huge, false); n != 1 {
		t.Errorf("a message no response can carry goes out alone: fitResponse = %d, want 1", n)
	}
}

// TestJSONTextLenBoundsEncoder: jsonTextLen is never below what encoding/json
// writes for the string, and equals it where the encoder has no short escape
// of its own choosing (\b and \f appeared in one Go release).
func TestJSONTextLenBoundsEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			switch rng.Intn(4) {
			case 0:
				b[j] = byte(rng.Intn(256))
			case 1:
				b[j] = "\"\\<>&\n\r\t\b\f\x7f"[rng.Intn(11)]
			default:
				b[j] = byte('a' + rng.Intn(26))
			}
		}
		s := string(b)
		if rng.Intn(3) == 0 {
			s += []string{"é", "\u2028", "\u2029", "日本", "\U0001F600", "\xe2\x80"}[rng.Intn(6)]
		}
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, enc := jsonTextLen(s), len(js)-2
		if got < enc {
			t.Fatalf("%q: jsonTextLen %d, encoding/json writes %d", s, got, enc)
		}
		if !strings.ContainsAny(s, "\b\f") && got != enc {
			t.Fatalf("%q: jsonTextLen %d, encoding/json writes %d", s, got, enc)
		}
	}
}
