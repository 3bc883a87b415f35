package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// poison is what a released mailbox slot holds in this package's tests.
var poison = mail.Stored{
	Message: mail.Message{
		ID:   mail.MessageID{Node: 666, Seq: 666},
		From: names.MustParse("R6.h6.poison"), To: []names.Name{names.MustParse("R6.h6.poison")},
		Subject: "poison", Body: "poison",
	},
	Read: true,
}

// TestMain runs every test of this package on scribbled slots: a mailbox slot
// connState.respond has released is overwritten with a plausible message, so
// a response encoded from a batch it no longer owns carries "poison" to the
// client, and a holder that keeps a released batch is seen to.
func TestMain(m *testing.M) {
	mail.AfterRelease = func(slot *mail.Stored) { *slot = poison }
	os.Exit(m.Run())
}

// getmailFrame is a native getmail frame for user, with extra bytes behind
// the name.
func getmailFrame(t *testing.T, user string, tag uint32, extra ...byte) []byte {
	t.Helper()
	frame := append([]byte{0, 0, 0, 0, binOpGetMail}, binary.LittleEndian.AppendUint32(nil, tag)...)
	frame, err := sealAt(append(appendStr(frame, user), extra...), 0)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBinaryGetMailBoundOnReader: the reader binds a native getmail to its
// user's agent; what it cannot bind goes on by name and fails, or succeeds,
// exactly as it did when every getmail went by name.
func TestBinaryGetMailBoundOnReader(t *testing.T) {
	s := newServer(t)
	pipelineRegister(t, newClient(t, s), "R1.h1.alice")
	conn, cr := rawConn(t, s.Addr())
	ask := func(frame []byte) Response {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, _ := readBinary(t, cr)
		return resp
	}

	// Both spellings of a name reach one agent: one LastCheckingTime, and
	// Polls counts both walks.
	first := ask(getmailFrame(t, "R1.h1.alice", 1))
	second := ask(getmailFrame(t, "R1@h1@alice", 2))
	if !first.OK || !second.OK || first.Polls != 3 || second.Polls != 4 || second.LastChecking <= first.LastChecking {
		t.Fatalf("R1.h1.alice then R1@h1@alice: %+v, then %+v", first, second)
	}
	s.agentMu.Lock()
	ua, agents := s.agents[names.MustParse("R1.h1.alice")], len(s.agents)
	s.agentMu.Unlock()
	if agents != 1 || ua == nil || ua.a.LastCheckingTime().UnixNano() != second.LastChecking {
		t.Fatalf("%d agents after two spellings of one name; alice's: %+v", agents, ua)
	}
	// Bytes behind the name are ignored, as DecodeBinaryRequest ignores them.
	if resp := ask(getmailFrame(t, "R1.h1.alice", 3, 1, 2, 3)); !resp.OK || resp.Polls != 5 {
		t.Fatalf("getmail with bytes behind the name: %+v", resp)
	}

	// A reader-side miss is not an error of the reader's: the by-name path
	// answers, in its own words, and the connection goes on.
	for _, tc := range []struct{ user, want, code string }{
		{"R9.h9.nobody", "getmail: livenet: user has no authority servers: unknown user: R9.h9.nobody", "unknown_user"},
		{"bogus", `user: names: name must have exactly three tokens (region.host.user): "bogus"`, ""},
		{"R1.h1.al ice", `user: names: token contains characters outside the naming alphabet: "al ice"`, ""},
		{"R1..alice", "user: names: empty name token", ""},
		{"R1@h1.alice", `user: names: name must have exactly three tokens (region.host.user): "R1@h1.alice"`, ""},
	} {
		if resp := ask(getmailFrame(t, tc.user, 4)); resp.OK || resp.Error != tc.want || resp.Code != tc.code {
			t.Errorf("getmail %q: %+v, want error %q code %q", tc.user, resp, tc.want, tc.code)
		}
	}

	// register u; getmail u in one segment: when the reader sees the getmail
	// the register may not have run — the miss falls through, and by the
	// getmail's turn the user is there.
	register, err := AppendBinaryRequest(nil, Request{Op: "register", User: "R1.h2.zed"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(register, getmailFrame(t, "R1.h2.zed", 6)...)); err != nil {
		t.Fatal(err)
	}
	if resp, tag := readBinary(t, cr); !resp.OK || tag != 5 {
		t.Fatalf("register: %+v tag %d", resp, tag)
	}
	if resp, tag := readBinary(t, cr); !resp.OK || tag != 6 || resp.Polls != 3 {
		t.Fatalf("getmail behind its own register: %+v tag %d", resp, tag)
	}

	// A name that runs past its frame is a malformed payload: answered under
	// the frame's tag, and the connection is dropped.
	cut := append([]byte{0, 0, 0, 0, binOpGetMail}, binary.LittleEndian.AppendUint32(nil, 11)...)
	cut, _ = sealAt(append(cut, 40, 'a'), 0)
	if _, err := conn.Write(cut); err != nil {
		t.Fatal(err)
	}
	if resp, tag := readBinary(t, cr); resp.OK || resp.Error != "wire: malformed binary payload" || tag != 11 {
		t.Fatalf("name past the frame's end: %+v tag %d", resp, tag)
	}
	if _, err := cr.readFrame(getFrameBuf()); !errors.Is(err, io.EOF) {
		t.Fatalf("after a malformed payload: %v, want EOF", err)
	}
}

// TestReleasedSlotsPoisonedUnderKillRestart: eight connections submit to a
// user of their own and retrieve it while servers are killed and restarted
// under them. Every response's batch is released when it has been encoded and
// its slot — scribbled on, see TestMain — is drawn by whichever deposit comes
// next, on any connection; every message that arrives is still exactly the
// one submitted under its ID, and none comes twice. (Not that all arrive: a
// poll abandoned by a kill may have drained its mailbox — ROADMAP item 5(c).)
func TestReleasedSlotsPoisonedUnderKillRestart(t *testing.T) {
	servers := []string{"s1", "s2", "s3"}
	s, err := NewServerWith("127.0.0.1:0", servers, ServerConfig{
		Cluster: livenet.ClusterConfig{DataDir: t.TempDir()}, WireWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			user := fmt.Sprintf("R1.h1.u%d", w)
			if err := c.Register(user, servers[w%3], servers[(w+1)%3], servers[(w+2)%3]); err != nil {
				t.Error(err)
				return
			}
			sent, got := make(map[string]string), make(map[string]bool)
			retrieve := func() {
				msgs, err := c.GetMail(user)
				if err != nil {
					t.Errorf("%s: getmail: %v", user, err)
					return
				}
				for _, m := range msgs {
					if want, ok := sent[m.ID]; !ok || m.Subject != want || m.Body != "body of "+want || m.From != user {
						t.Errorf("%s: retrieved %+v, submitted %q under that ID", user, m, want)
					}
					if got[m.ID] {
						t.Errorf("%s: %s retrieved twice", user, m.ID)
					}
					got[m.ID] = true
				}
			}
			for i := 0; i < rounds; i++ {
				subject := fmt.Sprintf("%s-%d", user, i)
				id, err := c.Submit(user, []string{user}, subject, "body of "+subject)
				if err != nil {
					t.Errorf("%s: submit: %v", user, err)
					return
				}
				sent[id] = subject
				if i%3 != 0 { // now and then two messages wait: a batch that is no slot
					retrieve()
				}
			}
			<-stop // the last restart is done: a walk finds what fail-over scattered
			retrieve()
			if len(got) < len(sent)/2 {
				t.Errorf("%s: retrieved %d of %d accepted messages", user, len(got), len(sent))
			}
		}(w)
	}
	for cycle := 0; cycle < 6; cycle++ {
		srv, _ := s.Cluster().Server(servers[cycle%3])
		time.Sleep(5 * time.Millisecond)
		if err := srv.Kill(); err != nil {
			t.Error(err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := srv.Restart(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReleaseTakesOnlyWholeSlots pins the two guards opGetMail keeps between a
// split batch and mail.Release, by the shapes it hands on: the prefix of a
// split keeps the capacity of the array it shares with the tail, and a tail of
// one message is in a slot of its own.
func TestReleaseTakesOnlyWholeSlots(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
	// Two messages that fit a response only one at a time.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit("R1.h1.alice", []string{"R1.h1.bob"}, fmt.Sprint(i), strings.Repeat("x", MaxLine*2/3)); err != nil {
			t.Fatal(err)
		}
	}
	first := s.opGetMail(Request{Op: "getmail", User: "R1.h1.bob"})
	if len(first.stored) != 1 || cap(first.stored) < 2 {
		t.Fatalf("prefix of a split batch: len %d cap %d, want 1 and the shared array's", len(first.stored), cap(first.stored))
	}
	second := s.opGetMail(Request{Op: "getmail", User: "R1.h1.bob"})
	if len(second.stored) != 1 || cap(second.stored) != 1 || &second.stored[0] == &first.stored[:2][1] {
		t.Fatalf("tail of one message: len %d cap %d, in the prefix's array: %v", len(second.stored), cap(second.stored), &second.stored[0] == &first.stored[:2][1])
	}
	if first.stored[0].Subject != "0" || second.stored[0].Subject != "1" {
		t.Fatalf("parts out of order: %q then %q", first.stored[0].Subject, second.stored[0].Subject)
	}
}
