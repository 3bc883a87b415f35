package mailstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// walDigest hashes every segment file under dir, in path order, names
// included: the bytes a store left on disk.
func walDigest(t *testing.T, dir string) (string, int64) {
	t.Helper()
	h := sha256.New()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		total += int64(len(raw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), total
}

// update runs fn on the user's durable mailbox, creating an empty one first if
// there is none — what Store.Update did when the seeded histories below were
// recorded. An empty mailbox journals nothing, so the bytes are the same.
func update(st *Store, user names.Name, fn func(*mail.Mailbox)) {
	sh := st.shard(user)
	sh.mu.Lock()
	if sh.boxes[user] == nil {
		sh.newBox(user).EnableJournal()
	}
	sh.mu.Unlock()
	st.UpdateExisting(user, fn)
}

// TestDurableJournalBufferSameWAL drives a seeded sequence of every journaled
// mutation — deposit, drain, mark-read, evict (Remove), suppress, through
// Deposit/Drain and through closures that journal several ops at once — over
// few enough users that the shard's lent journal buffer goes from mailbox to
// mailbox all the time. The bytes on disk, the WAL counters and what recovery
// replays are pinned to the values the same sequence produced when every
// mutation allocated its own journal slice.
func TestDurableJournalBufferSameWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenOptions(Options{Dir: dir, Shards: 2, segmentBytes: 16 << 10, compactBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	var seq uint64
	for step := 0; step < 3000; step++ {
		u := duser(rng.Intn(12))
		switch rng.Intn(8) {
		case 0, 1, 2:
			seq++
			st.Deposit(u, dmsg(seq, u, strings.Repeat("b", rng.Intn(300))), sim.Time(step))
		case 3:
			st.Drain(u)
		case 4: // several ops from one closure: two deposits and a mark-read
			update(st, u, func(mb *mail.Mailbox) {
				seq += 2
				mb.Deposit(dmsg(seq-1, u, "x"), sim.Time(step))
				mb.Deposit(dmsg(seq, u, "y"), sim.Time(step))
				mb.MarkRead(mail.MessageID{Node: 1, Seq: seq})
			})
		case 5:
			st.UpdateExisting(u, func(mb *mail.Mailbox) { keepNewest(mb, 2) })
		case 6:
			update(st, u, func(mb *mail.Mailbox) { mb.Suppress(mail.MessageID{Node: 2, Seq: uint64(rng.Intn(40))}) })
		case 7: // a mutation that journals nothing: duplicate deposit, miss
			update(st, u, func(mb *mail.Mailbox) {
				mb.Deposit(dmsg(seq, u, "dup"), sim.Time(step))
				mb.MarkRead(mail.MessageID{Node: 9, Seq: 9})
			})
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	ws, _ := st.WALStats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	digest, size := walDigest(t, dir)
	re, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs, _ := re.RecoveryStats()
	got := fmt.Sprintf("wal %s %d B; appends %d bytes %d rotations %d compactions %d; recovered segments %d records %d bytes %d torn %d mailboxes %d messages %d",
		digest, size, ws.Appends, ws.Bytes, ws.Rotations, ws.Compactions,
		rs.Segments, rs.Records, rs.Bytes, rs.TornTails, rs.Mailboxes, rs.Messages)
	const want = "wal 003c085818d7a115eb177757fdbef90baf8d664df5c9e84fc2bc83394b086c34 321590 B; appends 2634 bytes 321422 rotations 19 compactions 0; recovered segments 21 records 3408 bytes 321590 torn 0 mailboxes 12 messages 40"
	if got != want {
		t.Fatalf("WAL of the seeded sequence changed:\n got %s\nwant %s", got, want)
	}
}

// TestDurableDepositAllocs: a deposit into an existing mailbox of a durable
// store allocates the mailbox's message slot and nothing for the journal —
// the Op rides the shard's lent buffer, the record the shard's scratch.
func TestDurableDepositAllocs(t *testing.T) {
	st, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	u := duser(1)
	var seq uint64
	deposit := func() {
		seq++
		st.Deposit(u, mail.Message{ID: mail.MessageID{Node: 1, Seq: seq}, From: u, Subject: "s", Body: "body"}, 0)
		st.Drain(u) // the next deposit finds an empty mailbox, as on the wire path
	}
	deposit()
	if n := testing.AllocsPerRun(500, deposit); n > 1 {
		t.Errorf("durable Deposit + Drain: %v allocs, want ≤ 1 (3 before the lent journal buffer: a journal slice per deposit and per drain)", n)
	}
}
