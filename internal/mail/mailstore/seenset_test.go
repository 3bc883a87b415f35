package mailstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/sim"
)

// TestDurableSeenSetSameLayout drives a seeded history over users whose
// duplicate memories stay inline (one to three IDs), sit on the spill
// boundary and run to dozens of IDs — deposits, duplicates, drains, evictions
// and suppressions, the zero ID among them — through enough bytes that every
// shard snapshots several times. Everything is pinned to what the same
// history produced when Mailbox.seen was a map: the bytes on disk, snapshots
// included (a snapshot lists SeenIDs, so its bytes are the sorted set), and
// the SeenIDs and MaxSeenSeq recovery rebuilds from them. Equal bytes make
// the store written here the store the map layout wrote, so the second half
// is also that layout's files recovering under IDSet.
func TestDurableSeenSetSameLayout(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenOptions(Options{Dir: dir, Shards: 2, SegmentBytes: 8 << 10, CompactBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var seq uint64
	for step := 0; step < 4000; step++ {
		// Six busy users, whose sets run to dozens of IDs, and two dozen
		// that are touched a few times in the whole run.
		u := duser(rng.Intn(6))
		if rng.Intn(50) == 0 {
			u = duser(6 + rng.Intn(24))
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			seq++
			st.Deposit(u, dmsg(seq, u, strings.Repeat("b", rng.Intn(200))), sim.Time(step))
		case 3: // a retry: some earlier ID again, usually a duplicate
			if seq > 0 {
				old := 1 + uint64(rng.Int63n(int64(seq)))
				st.Deposit(u, dmsg(old, u, "again"), sim.Time(step))
			}
		case 4:
			st.Drain(u)
		case 5:
			st.UpdateExisting(u, func(mb *mail.Mailbox) {
				mb.Cleanup(mail.Retention{MaxMessages: 2}, sim.Time(step))
			})
		case 6:
			st.Update(u, func(mb *mail.Mailbox) {
				mb.Suppress(mail.MessageID{Node: 2, Seq: uint64(rng.Intn(6))}) // Seq 0 with Node 2, and…
				if rng.Intn(4) == 0 {
					mb.Suppress(mail.MessageID{}) // …the zero ID itself
				}
			})
		case 7:
			if peek := st.Peek(u); len(peek) > 0 {
				st.UpdateExisting(u, func(mb *mail.Mailbox) { mb.Remove(peek[rng.Intn(len(peek))].ID) })
			}
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
	seen := sha256.New()
	inline, spilled := 0, 0
	for _, u := range re.Users() {
		re.View(u, func(mb *mail.Mailbox) {
			ids := mb.SeenIDs()
			if len(ids) <= 3 {
				inline++
			} else {
				spilled++
			}
			fmt.Fprintf(seen, "%v %v %d %d\n", u, ids, mb.MaxSeenSeq(1), mb.MaxSeenSeq(2))
		})
	}
	got := fmt.Sprintf("wal %s %d B, %d compactions; seen %s over %d inline + %d spilled sets",
		digest, size, ws.Compactions, hex.EncodeToString(seen.Sum(nil)), inline, spilled)
	const want = "wal 02dc7f73279c56497ceac8b107853c7c4e6cf8a171cc682683428399eb2a8d9d 23378 B, 16 compactions; seen 1f8bcc6abd000e7d9aa0e91c5bbfed9d5fb24ebaf732827e42fec38ae3f3f96b over 19 inline + 11 spilled sets"
	if got != want {
		t.Fatalf("store of the seeded history changed:\n got %s\nwant %s", got, want)
	}
}
