package mail

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

var owner = names.MustParse("east.h1.alice")

func msg(seq uint64, body string) Message {
	return Message{
		ID:      MessageID{Node: 101, Seq: seq},
		From:    names.MustParse("west.h2.bob"),
		To:      []names.Name{owner},
		Subject: "s",
		Body:    body,
	}
}

func TestMessageIDString(t *testing.T) {
	id := MessageID{Node: 7, Seq: 42}
	if id.String() != "m7-42" {
		t.Errorf("String() = %q", id.String())
	}
	if got := id.AppendTo([]byte("x")); string(got) != "xm7-42" {
		t.Errorf("AppendTo = %q", got)
	}
	if id.IsZero() {
		t.Error("non-zero ID reported zero")
	}
	if !(MessageID{}).IsZero() {
		t.Error("zero ID not reported zero")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusComposed: "composed", StatusSubmitted: "submitted",
		StatusRelayed: "relayed", StatusBuffered: "buffered",
		StatusDelivered: "delivered", StatusRead: "read",
		Status(99): "Status(99)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestDepositAndDrain(t *testing.T) {
	b := NewMailbox(owner)
	if b.Owner() != owner {
		t.Errorf("Owner = %v", b.Owner())
	}
	if !b.Deposit(msg(1, "one"), 10) {
		t.Fatal("first deposit rejected")
	}
	if !b.Deposit(msg(2, "two"), 20) {
		t.Fatal("second deposit rejected")
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	if b.Bytes() != len("s")*2+len("one")+len("two") {
		t.Errorf("Bytes = %d", b.Bytes())
	}
	got := b.Drain()
	if len(got) != 2 || got[0].Body != "one" || got[1].Body != "two" {
		t.Errorf("Drain = %v", got)
	}
	if got[0].ArrivedAt != 10 || got[1].ArrivedAt != 20 {
		t.Errorf("arrival times = %v, %v", got[0].ArrivedAt, got[1].ArrivedAt)
	}
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Error("mailbox not empty after Drain")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	b := NewMailbox(owner)
	m := msg(1, "x")
	if !b.Deposit(m, 0) {
		t.Fatal("first deposit rejected")
	}
	if b.Deposit(m, 5) {
		t.Error("duplicate deposit accepted")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
	// Suppression survives Drain: a replayed message must not reappear.
	b.Drain()
	if b.Deposit(m, 9) {
		t.Error("re-deposit after drain accepted")
	}
}

// TestLendJournal: a lent buffer is what the mutation is journaled into and
// what TakeOps hands back; without one the journal allocates its own, as
// before.
func TestLendJournal(t *testing.T) {
	b := NewMailbox(owner)
	b.EnableJournal()
	buf := make([]Op, 0, 4)
	b.LendJournal(buf)
	b.Deposit(msg(1, "a"), 0)
	b.Drain()
	ops := b.TakeOps()
	if len(ops) != 2 || ops[0].Kind != OpDeposit || ops[1].Kind != OpDrain || &ops[0] != &buf[:1][0] {
		t.Fatalf("journal not in the lent buffer: %+v", ops)
	}
	b.Deposit(msg(2, "b"), 0)
	if own := b.TakeOps(); len(own) != 1 || &own[0] == &buf[:1][0] {
		t.Fatalf("journal reused a buffer it had handed back: %+v", own)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	b := NewMailbox(owner)
	b.Deposit(msg(1, "x"), 0)
	p := b.Peek()
	if len(p) != 1 || b.Len() != 1 {
		t.Error("Peek removed or missed messages")
	}
	p[0].Body = "mutated"
	if b.Peek()[0].Body != "x" {
		t.Error("Peek exposed internal storage")
	}
}

func TestMarkRead(t *testing.T) {
	b := NewMailbox(owner)
	m := msg(1, "x")
	b.Deposit(m, 0)
	if !b.MarkRead(m.ID) {
		t.Error("MarkRead failed on present message")
	}
	if b.MarkRead(MessageID{Node: 9, Seq: 9}) {
		t.Error("MarkRead succeeded on absent message")
	}
	if !b.Peek()[0].Read {
		t.Error("message not marked read")
	}
}

func TestCleanupMaxMessages(t *testing.T) {
	b := NewMailbox(owner)
	for i := uint64(1); i <= 5; i++ {
		b.Deposit(msg(i, "x"), sim.Time(i))
	}
	evicted := b.Cleanup(Retention{MaxMessages: 3}, 100)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d, want 2", len(evicted))
	}
	if evicted[0].ID.Seq != 1 || evicted[1].ID.Seq != 2 {
		t.Errorf("evicted wrong messages: %v", evicted)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestCleanupMaxAge(t *testing.T) {
	b := NewMailbox(owner)
	b.Deposit(msg(1, "old"), 0)
	b.Deposit(msg(2, "new"), 90)
	evicted := b.Cleanup(Retention{MaxAge: 50}, 100)
	if len(evicted) != 1 || evicted[0].Body != "old" {
		t.Errorf("evicted = %v", evicted)
	}
	if b.Len() != 1 || b.Peek()[0].Body != "new" {
		t.Error("kept wrong message")
	}
}

func TestCleanupReadOnly(t *testing.T) {
	b := NewMailbox(owner)
	m1, m2 := msg(1, "read"), msg(2, "unread")
	b.Deposit(m1, 0)
	b.Deposit(m2, 0)
	b.MarkRead(m1.ID)
	evicted := b.Cleanup(Retention{MaxAge: 10, ReadOnly: true}, 1000)
	if len(evicted) != 1 || evicted[0].ID != m1.ID {
		t.Errorf("evicted = %v, want only the read message", evicted)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestCleanupNoPolicyKeepsAll(t *testing.T) {
	b := NewMailbox(owner)
	for i := uint64(1); i <= 4; i++ {
		b.Deposit(msg(i, "x"), 0)
	}
	if evicted := b.Cleanup(Retention{}, 1e9); len(evicted) != 0 {
		t.Errorf("no-limit policy evicted %d messages", len(evicted))
	}
	if b.Len() != 4 {
		t.Errorf("Len = %d, want 4", b.Len())
	}
}

func TestCleanupBytesAccounting(t *testing.T) {
	b := NewMailbox(owner)
	b.Deposit(msg(1, "aaaa"), 0)
	b.Deposit(msg(2, "bb"), 10)
	b.Cleanup(Retention{MaxMessages: 1}, 20)
	want := len("s") + len("bb")
	if b.Bytes() != want {
		t.Errorf("Bytes after cleanup = %d, want %d", b.Bytes(), want)
	}
}

// Property: deposit n distinct messages → Len == n, Drain returns them in
// arrival order, and total bytes match.
func TestPropertyDepositDrain(t *testing.T) {
	f := func(bodies []string) bool {
		b := NewMailbox(owner)
		wantBytes := 0
		for i, body := range bodies {
			if !b.Deposit(msg(uint64(i+1), body), sim.Time(i)) {
				return false
			}
			wantBytes += len("s") + len(body)
		}
		if b.Len() != len(bodies) || b.Bytes() != wantBytes {
			return false
		}
		got := b.Drain()
		for i := range got {
			if got[i].ID.Seq != uint64(i+1) {
				return false
			}
		}
		return b.Len() == 0
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMessageSize(t *testing.T) {
	m := Message{Subject: "abc", Body: "defg"}
	if m.Size() != 7 {
		t.Errorf("Size = %d, want 7", m.Size())
	}
}

func TestMultimediaParts(t *testing.T) {
	m := Message{Subject: "s", Body: "b"}
	data := []byte{1, 2, 3, 4}
	m.AddPart(ContentVoice, data)
	m.AddPart(ContentFacsimile, []byte{9})
	if m.PartsSize() != 5 {
		t.Errorf("PartsSize = %d, want 5", m.PartsSize())
	}
	if m.Size() != len("s")+len("b")+5 {
		t.Errorf("Size = %d", m.Size())
	}
	// AddPart copies: mutating the caller's buffer must not reach the part.
	data[0] = 99
	if m.Parts[0].Data[0] == 99 {
		t.Error("AddPart aliased caller's buffer")
	}
	if m.Parts[0].Type != ContentVoice || m.Parts[1].Type != ContentFacsimile {
		t.Errorf("part types = %v, %v", m.Parts[0].Type, m.Parts[1].Type)
	}
	// Mailbox byte accounting includes parts.
	b := NewMailbox(owner)
	m.ID = MessageID{Node: 1, Seq: 1}
	b.Deposit(m, 0)
	if b.Bytes() != m.Size() {
		t.Errorf("mailbox bytes = %d, want %d", b.Bytes(), m.Size())
	}
}
