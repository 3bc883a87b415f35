package mailstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

func duser(n int) names.Name {
	return names.Name{Region: "R0", Host: fmt.Sprintf("h%d", n%4), User: fmt.Sprintf("u%d", n)}
}

func dmsg(seq uint64, to names.Name, body string) mail.Message {
	return mail.Message{
		ID:          mail.MessageID{Node: graph.NodeID(1), Seq: seq},
		From:        duser(0),
		To:          []names.Name{to},
		Subject:     fmt.Sprintf("s%d", seq),
		Body:        body,
		SubmittedAt: sim.Time(seq * 10),
	}
}

// ids extracts the message IDs of a Peek/Drain result.
func ids(stored []mail.Stored) []mail.MessageID {
	out := make([]mail.MessageID, len(stored))
	for i, st := range stored {
		out[i] = st.ID
	}
	return out
}

// requireState compares a store against an exact per-user oracle of
// surviving message IDs (in arrival order) and re-derives the counter sums
// from Peek so recovered counters are proven, not assumed.
func requireState(t *testing.T, st *Store, want map[string][]mail.MessageID) {
	t.Helper()
	var msgs, bytes int64
	for _, u := range st.Users() {
		stored := st.Peek(u)
		got := ids(stored)
		key := u.String()
		if fmt.Sprint(got) != fmt.Sprint(want[key]) {
			t.Fatalf("user %s: surviving messages = %v, want %v", key, got, want[key])
		}
		delete(want, key)
		msgs += int64(len(stored))
		for _, s := range stored {
			bytes += int64(s.Size())
		}
	}
	for key, w := range want {
		if len(w) > 0 {
			t.Fatalf("user %s missing entirely (want %v)", key, w)
		}
	}
	if got := st.TotalMessages(); got != msgs {
		t.Fatalf("TotalMessages = %d, want %d (recomputed)", got, msgs)
	}
	if got := st.TotalBytes(); got != bytes {
		t.Fatalf("TotalBytes = %d, want %d (recomputed)", got, bytes)
	}
}

// TestDurableRoundtrip: a closed store reopens with identical state —
// stored messages with order/read flags/parts, drained-empty mailboxes, and
// the duplicate-suppression memory.
func TestDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	u1, u2, u3 := duser(1), duser(2), duser(3)
	m1 := dmsg(1, u1, "hello")
	m1.AddPart(mail.ContentVoice, []byte{0xde, 0xad})
	if !st.Deposit(u1, m1, 5) {
		t.Fatal("fresh deposit rejected")
	}
	st.Deposit(u1, dmsg(2, u1, "again"), 6)
	st.Deposit(u2, dmsg(3, u2, "other"), 7)
	st.Deposit(u3, dmsg(4, u3, "bye"), 8)
	st.UpdateExisting(u1, func(mb *mail.Mailbox) { mb.MarkRead(m1.ID) })
	if got := len(st.Drain(u3)); got != 1 {
		t.Fatalf("drained %d, want 1", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs, ok := re.RecoveryStats()
	if !ok || rs.Records == 0 || rs.Mailboxes != 3 {
		t.Fatalf("recovery stats = %+v, ok=%v", rs, ok)
	}
	if re.LastStartTime().IsZero() {
		t.Fatal("recovered store has zero LastStartTime")
	}
	requireState(t, re, map[string][]mail.MessageID{
		u1.String(): {m1.ID, {Node: 1, Seq: 2}},
		u2.String(): {{Node: 1, Seq: 3}},
		u3.String(): nil, // drained but must still exist for suppression
	})
	if re.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d, want 3 (drained mailbox must survive)", re.NumUsers())
	}
	got := re.Peek(u1)
	if !got[0].Read || got[0].ArrivedAt != 5 {
		t.Fatalf("read flag / arrival lost: %+v", got[0])
	}
	if len(got[0].Parts) != 1 || got[0].Parts[0].Type != mail.ContentVoice {
		t.Fatalf("parts lost: %+v", got[0].Parts)
	}
	// The drained message's ID must stay suppressed after recovery.
	if re.Deposit(u3, dmsg(4, u3, "bye"), 99) {
		t.Fatal("re-deposit of drained message not suppressed after recovery")
	}
}

// TestDurableCrashRestartMatrix kills the store (reopen without Close —
// appends are direct writes, so this is what an in-process kill leaves
// behind) at three checkpoints relative to the snapshot/compaction cycle and
// checks an exact surviving-message oracle, mirroring getmail_matrix_test.go.
func TestDurableCrashRestartMatrix(t *testing.T) {
	u1, u2 := duser(1), duser(2)
	big := strings.Repeat("x", 256)
	cases := []struct {
		name string
		opts Options
		run  func(t *testing.T, st *Store)
		want map[string][]mail.MessageID
		// wantCompactions asserts where the kill landed in the cycle.
		wantCompactions func(t *testing.T, n int64)
	}{
		{
			name: "pre-snapshot", // killed before any compaction: pure WAL replay
			opts: Options{Shards: 1, CompactBytes: 1 << 30},
			run: func(t *testing.T, st *Store) {
				st.Deposit(u1, dmsg(1, u1, "a"), 1)
				st.Deposit(u1, dmsg(2, u1, "b"), 2)
				st.Deposit(u2, dmsg(3, u2, "c"), 3)
				st.Drain(u1)
				st.Deposit(u1, dmsg(4, u1, "d"), 4)
			},
			want: map[string][]mail.MessageID{
				u1.String(): {{Node: 1, Seq: 4}},
				u2.String(): {{Node: 1, Seq: 3}},
			},
			wantCompactions: func(t *testing.T, n int64) {
				if n != 0 {
					t.Fatalf("compactions = %d, want 0", n)
				}
			},
		},
		{
			name: "mid-wal", // killed with live WAL records appended after a snapshot
			opts: Options{Shards: 1, CompactBytes: 512},
			run: func(t *testing.T, st *Store) {
				for seq := uint64(1); seq <= 8; seq++ {
					st.Deposit(u1, dmsg(seq, u1, big), sim.Time(seq))
				}
				st.Drain(u1) // shrink live state so the next appends out-size it
				for seq := uint64(9); seq <= 12; seq++ {
					st.Deposit(u2, dmsg(seq, u2, "tail"), sim.Time(seq))
				}
			},
			want: map[string][]mail.MessageID{
				u1.String(): nil,
				u2.String(): {{Node: 1, Seq: 9}, {Node: 1, Seq: 10}, {Node: 1, Seq: 11}, {Node: 1, Seq: 12}},
			},
			wantCompactions: func(t *testing.T, n int64) {
				if n == 0 {
					t.Fatal("compactions = 0, want > 0 (checkpoint requires a snapshot behind the tail)")
				}
			},
		},
		{
			name: "post-compaction", // killed right after a snapshot: replay is the snapshot alone
			opts: Options{Shards: 1, CompactBytes: 256},
			run: func(t *testing.T, st *Store) {
				st.Deposit(u1, dmsg(1, u1, big), 1)
				st.Deposit(u2, dmsg(2, u2, big), 2)
				st.Drain(u2)
				st.UpdateExisting(u1, func(mb *mail.Mailbox) { mb.MarkRead(mail.MessageID{Node: 1, Seq: 1}) })
				st.Deposit(u1, dmsg(3, u1, big+big), 3) // big append lands the compaction here
			},
			want: map[string][]mail.MessageID{
				u1.String(): {{Node: 1, Seq: 1}, {Node: 1, Seq: 3}},
				u2.String(): nil,
			},
			wantCompactions: func(t *testing.T, n int64) {
				if n == 0 {
					t.Fatal("compactions = 0, want > 0")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Dir = t.TempDir()
			st, err := OpenOptions(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, st)
			if err := st.Err(); err != nil {
				t.Fatalf("WAL error before kill: %v", err)
			}
			ws, _ := st.WALStats()
			tc.wantCompactions(t, ws.Compactions)
			// Kill: no Close, no sync. Reopen from whatever hit the files.
			re, err := OpenOptions(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			requireState(t, re, tc.want)
		})
	}
}

// TestDurableSuppressionSurvivesKill pins the dedup half of the kill oracle
// separately: every ID deposited before the kill is suppressed after it.
func TestDurableSuppressionSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 1, CompactBytes: 512}
	st, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	u1 := duser(1)
	for seq := uint64(1); seq <= 20; seq++ {
		st.Deposit(u1, dmsg(seq, u1, strings.Repeat("y", 64)), sim.Time(seq))
	}
	st.Drain(u1)
	re, err := OpenOptions(opts) // kill + restart
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for seq := uint64(1); seq <= 20; seq++ {
		if re.Deposit(u1, dmsg(seq, u1, "dup"), 999) {
			t.Fatalf("seq %d re-deposited after kill: suppression memory lost", seq)
		}
	}
}

func onlyShardDir(t *testing.T, dir string) string {
	t.Helper()
	return filepath.Join(dir, "shard-0000")
}

func segFiles(t *testing.T, shardDir string) []string {
	t.Helper()
	ents, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			out = append(out, filepath.Join(shardDir, e.Name()))
		}
	}
	return out
}

// TestDurableTornTail: garbage or a half-written frame at the end of the
// newest segment is truncated away on Open; everything before it survives.
func TestDurableTornTail(t *testing.T) {
	for _, tear := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x13, 0x37, 0xff}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"frame-cut-short", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Shards: 1, CompactBytes: 1 << 30}
			st, err := OpenOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			u1 := duser(1)
			st.Deposit(u1, dmsg(1, u1, "keep-a"), 1)
			st.Deposit(u1, dmsg(2, u1, "keep-b"), 2)
			st.Deposit(u1, dmsg(3, u1, "last"), 3)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			segs := segFiles(t, onlyShardDir(t, dir))
			if len(segs) != 1 {
				t.Fatalf("segments = %d, want 1", len(segs))
			}
			tear.tear(t, segs[0])

			re, err := OpenOptions(opts)
			if err != nil {
				t.Fatalf("Open after tail tear: %v", err)
			}
			defer re.Close()
			rs, _ := re.RecoveryStats()
			if rs.TornTails != 1 {
				t.Fatalf("TornTails = %d, want 1", rs.TornTails)
			}
			got := ids(re.Peek(u1))
			// frame-cut-short loses the final record; garbage-appended loses nothing.
			wantLen := 3
			if tear.name == "frame-cut-short" {
				wantLen = 2
			}
			if len(got) != wantLen {
				t.Fatalf("surviving messages = %v, want %d of them", got, wantLen)
			}
			// The tear was truncated on disk: a second reopen is clean.
			re.Close()
			re2, err := OpenOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			rs2, _ := re2.RecoveryStats()
			if rs2.TornTails != 0 {
				t.Fatalf("second open TornTails = %d, want 0 (tear not truncated)", rs2.TornTails)
			}
		})
	}
}

// TestDurableCorruptSealedSegment: a checksum failure in a sealed (non-tail)
// segment is real corruption and must fail Open, not silently truncate.
func TestDurableCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; huge CompactBytes keeps the history.
	opts := Options{Dir: dir, Shards: 1, SegmentBytes: 128, CompactBytes: 1 << 30}
	st, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	u1 := duser(1)
	for seq := uint64(1); seq <= 6; seq++ {
		st.Deposit(u1, dmsg(seq, u1, strings.Repeat("z", 64)), sim.Time(seq))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, onlyShardDir(t, dir))
	if len(segs) < 2 {
		t.Fatalf("segments = %d, want >= 2 (rotation did not happen)", len(segs))
	}
	// Flip a payload byte in the first (sealed) segment.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOptions(opts); err == nil {
		t.Fatal("Open succeeded over a corrupt sealed segment")
	}
}

// TestDurableShardMismatch: reopening with a conflicting shard count is an
// error (shard placement decides which log a user's ops live in).
func TestDurableShardMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Open(dir, 8); err == nil {
		t.Fatal("Open with mismatched shard count succeeded")
	}
	// Zero means "use the manifest's count".
	re, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4 from manifest", re.Shards())
	}
}

// TestDurableManifestWrittenOnce: the manifest is written by a store's first
// open and by nothing after it — a reopen leaves its bytes and modification
// time as they were, so no kill during a reopen can tear it — and the temp
// file of a first open killed before its rename does not stop the next one.
func TestDurableManifestWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path+".tmp", []byte(`{"vers`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, 4)
	if err != nil {
		t.Fatalf("open over a stray manifest temp file: %v", err)
	}
	st.Close()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest temp file still there: %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 0, 4} {
		re, err := Open(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		re.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) || !fi.ModTime().Equal(old) {
			t.Fatalf("reopen with %d shards rewrote the manifest: %q at %v, was %q at %v", shards, got, fi.ModTime(), want, old)
		}
	}
	if string(want) != `{"version":1,"shards":4}` {
		t.Fatalf("manifest %q", want)
	}
}

// TestDurableConcurrent hammers Deposit/Drain/TotalBytes from many
// goroutines on a durable store (run under -race by tier2-durability), then
// reopens and requires the recovered totals to match the survivors exactly.
func TestDurableConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 8, CompactBytes: 4 << 10}
	st, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			u := duser(wkr)
			for i := 0; i < perWorker; i++ {
				m := mail.Message{
					ID:   mail.MessageID{Node: graph.NodeID(wkr + 1), Seq: uint64(i + 1)},
					From: duser(0), To: []names.Name{u},
					Body: strings.Repeat("b", 32),
				}
				st.Deposit(u, m, sim.Time(i))
				if i%7 == 6 {
					st.Drain(u)
				}
				_ = st.TotalBytes()
				_ = st.TotalMessages()
			}
		}(wkr)
	}
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	wantMsgs, wantBytes := st.TotalMessages(), st.TotalBytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.TotalMessages(); got != wantMsgs {
		t.Fatalf("recovered TotalMessages = %d, want %d", got, wantMsgs)
	}
	if got := re.TotalBytes(); got != wantBytes {
		t.Fatalf("recovered TotalBytes = %d, want %d", got, wantBytes)
	}
	if re.NumUsers() != workers {
		t.Fatalf("NumUsers = %d, want %d", re.NumUsers(), workers)
	}
}

// TestDurableInterruptedCompactionDoesNotResurrect pins the crash window
// inside compaction's history deletion: a kill after the snapshot rename but
// before the old segments are unlinked leaves a low-seq prefix whose
// Deposits have lost their Drain records. Replay must start at the newest
// snapshot and ignore (and finish deleting) that prefix — replaying it would
// resurrect already-delivered mail.
func TestDurableInterruptedCompactionDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	u1 := duser(1)

	// Phase 1: two deposits, no compaction — seg 1 holds them.
	st, err := OpenOptions(Options{Dir: dir, Shards: 1, CompactBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	st.Deposit(u1, dmsg(1, u1, "delivered-a"), 1)
	st.Deposit(u1, dmsg(2, u1, "delivered-b"), 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := onlyShardDir(t, dir)
	segs := segFiles(t, shardDir)
	if len(segs) != 1 {
		t.Fatalf("segments after phase 1 = %v, want 1", segs)
	}
	oldPath := segs[0]
	oldSeg, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: drain (deliver) both, then force a compaction.
	st2, err := OpenOptions(Options{Dir: dir, Shards: 1, CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.Drain(u1)); got != 2 {
		t.Fatalf("drained %d, want 2", got)
	}
	st2.Deposit(u1, dmsg(3, u1, strings.Repeat("z", 256)), 3)
	ws, _ := st2.WALStats()
	if ws.Compactions == 0 {
		t.Fatal("compactions = 0, want > 0 (scenario requires a snapshot)")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the kill mid-deletion: the old segment is back, alongside the
	// snapshot that superseded it.
	if err := os.WriteFile(oldPath, oldSeg, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenOptions(Options{Dir: dir, Shards: 1, CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireState(t, re, map[string][]mail.MessageID{
		u1.String(): {{Node: 1, Seq: 3}},
	})
	// The delivered IDs stay suppressed, not resurrected.
	for seq := uint64(1); seq <= 2; seq++ {
		if re.Deposit(u1, dmsg(seq, u1, "dup"), 99) {
			t.Fatalf("drained seq %d re-deposited: resurrection via stale segment", seq)
		}
	}
	// Recovery finished the interrupted deletion.
	if _, err := os.Stat(oldPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale pre-snapshot segment still present after recovery (stat err = %v)", err)
	}
}

// TestDurableOversizeRecordLatched: a record whose payload exceeds the frame
// cap must never reach the log — ReadRecord would reject it as corruption,
// poisoning every record behind it. The append latches an error, memory
// keeps serving, and the store reopens cleanly without the oversize message.
func TestDurableOversizeRecordLatched(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: 1}
	st, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	u1 := duser(1)
	st.Deposit(u1, dmsg(1, u1, "small"), 1)
	if !st.Deposit(u1, dmsg(2, u1, strings.Repeat("x", maxPayload+1)), 2) {
		t.Fatal("oversize deposit rejected from memory")
	}
	if err := st.Err(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Err = %v, want ErrRecordTooLarge", err)
	}
	if st.Len(u1) != 2 {
		t.Fatalf("Len = %d, want 2 (store keeps serving from memory)", st.Len(u1))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenOptions(opts)
	if err != nil {
		t.Fatalf("reopen after oversize append: %v", err)
	}
	defer re.Close()
	if got := ids(re.Peek(u1)); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("recovered %v, want only seq 1 (oversize record must not hit disk)", got)
	}
}

// TestDurableCloseLatchesAppends: mutations after Close still apply in
// memory but are not logged, and Close is idempotent.
func TestDurableCloseLatchesAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	u1 := duser(1)
	st.Deposit(u1, dmsg(1, u1, "logged"), 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st.Deposit(u1, dmsg(2, u1, "after-close"), 2)
	if st.Len(u1) != 2 {
		t.Fatal("post-Close deposit lost from memory")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	re, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := ids(re.Peek(u1)); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("recovered %v, want only seq 1", got)
	}
	if errors.Is(re.Err(), os.ErrClosed) {
		t.Fatal("fresh store carries stale error")
	}
}

// TestDurableDrainFit: a partial drain takes the leading messages it is told
// to, keeps the counters and the term index exact for what stays, and is on
// disk as what it did — the reopened store holds the rest, in order, and still
// remembers the IDs that left.
func TestDurableDrainFit(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.EnableTermIndex()
	u1 := duser(1)
	for seq, body := range []string{"alpha", "beta", "gamma"} {
		st.Deposit(u1, dmsg(uint64(seq+1), u1, body), 1)
	}
	got := st.DrainFit(u1, func(buffered []mail.Stored) int { return len(buffered) - 1 })
	if len(got) != 2 || got[0].Body != "alpha" || got[1].Body != "beta" {
		t.Fatalf("DrainFit = %v, want the two leading messages", ids(got))
	}
	if len(st.SearchTerms([]string{"alpha"})) != 0 || len(st.SearchTerms([]string{"gamma"})) != 1 {
		t.Error("term index out of step with the partial drain")
	}
	want := func() map[string][]mail.MessageID {
		return map[string][]mail.MessageID{u1.String(): {{Node: 1, Seq: 3}}}
	}
	requireState(t, st, want())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireState(t, re, want())
	if re.Deposit(u1, dmsg(1, u1, "alpha"), 2) {
		t.Error("a message the partial drain took was deposited again after the reopen")
	}
}
