// Durability layer: a per-shard append-only segment log under the existing
// Store API. Every mutation (Deposit, Drain, UpdateExisting) is
// decomposed into mail.Op primitives by the mailbox journal and appended to
// the owning shard's log while the shard write lock is held, so the log
// order is exactly the lock order. Recovery (Open) replays the segments in
// sequence into a warm Store.
//
// Layout under Options.Dir:
//
//	MANIFEST.json             {"version":1,"shards":N} — written once; shard count is fixed
//	shard-0000/seg-%016d.wal  magic header + framed records (see wal.go)
//	shard-0000/snap-%016d.wal snapshot segment (same format, same seq space)
//	shard-0001/...
//
// Two maintenance actions bound recovery cost:
//
//   - rotation: a segment that reaches segmentBytes is synced, sealed, and a
//     new one started. Sealed segments are therefore fully on disk; a record
//     that fails CRC in one is real corruption and fails Open, while a bad
//     tail in the *newest* segment is the expected shape of a crash
//     mid-append and is truncated away.
//   - compaction: when the bytes appended since the last snapshot exceed
//     max(compactBytes, live content bytes) the shard's entire live state is
//     written as one snapshot segment (ordinary Deposit/Suppress records)
//     and older segments are deleted, so replay work is bounded by live
//     state, not history. Snapshots carry the distinct "snap-" prefix so
//     recovery can always start at the newest one and ignore anything
//     older: a crash mid-deletion leaves stale history behind, and
//     replaying it would resurrect messages whose Drain records were
//     already unlinked.
//
// Fsync policy: appends are direct write syscalls — no userspace buffering —
// so a process kill loses nothing that was acknowledged. FsyncNever (the
// default) leaves OS-crash durability to the kernel's writeback; FsyncAlways
// syncs after every write: one mutating call's records, or one shard's of a
// DepositBatch. Rotation and compaction always sync.
package mailstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// FsyncMode selects when the WAL fsyncs.
type FsyncMode int

const (
	// FsyncNever (default): write syscalls only. Survives process kill;
	// an OS crash can lose the kernel's unflushed writeback window.
	FsyncNever FsyncMode = iota
	// FsyncAlways: fsync after every write. Survives OS crash at the cost of
	// a disk flush per mutation, or per shard a batched deposit touches.
	FsyncAlways
)

func (m FsyncMode) String() string {
	if m == FsyncAlways {
		return "always"
	}
	return "never"
}

// ParseFsyncMode maps the String() form back to a mode — the -fsync flag
// parser shared by maild and mailbench.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "never", "":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncNever, fmt.Errorf("mailstore: unknown fsync mode %q (want never|always)", s)
}

// Options configures a durable store.
type Options struct {
	Dir    string    // root directory (created if absent); required
	Shards int       // shard count, as New; must match an existing dir's manifest
	Fsync  FsyncMode // see FsyncMode

	// The package's tests shrink these to reach rotation and compaction.
	segmentBytes int64 // rotate segments at this size (default 4 MiB)
	compactBytes int64 // snapshot when appended-since-snapshot exceeds max(this, live bytes) (default 1 MiB)
}

const (
	defaultSegmentBytes = 4 << 20
	defaultCompactBytes = 1 << 20
	manifestName        = "MANIFEST.json"
)

var segMagic = []byte("MAILWAL1")

// WALStats are cumulative write-path counters for a durable store.
type WALStats struct {
	Appends     int64 // writes (one per mutating call, or per shard of a DepositBatch)
	Bytes       int64 // framed bytes appended, snapshots excluded
	AppendNs    int64 // wall time spent in append write+sync calls
	Syncs       int64 // fsync calls
	Rotations   int64 // segments sealed at segmentBytes
	Compactions int64 // snapshot+compact cycles
	// Latched counts stores whose log has latched an error (Err): they keep
	// taking mail into memory but journal none of it. It is 0 or 1 for one
	// store and a count of current stores in a sum, never a total across
	// restarts: a reopened store starts unlatched.
	Latched int64
}

// Add accumulates o's counters into st — how owners carry totals across a
// store close/reopen cycle (e.g. livenet kill-restart) so cumulative
// write-path work is not zeroed by each fresh Open, and how they sum stores.
// An owner folding a closed store into its totals zeroes its Latched first.
func (st *WALStats) Add(o WALStats) {
	st.Appends += o.Appends
	st.Bytes += o.Bytes
	st.AppendNs += o.AppendNs
	st.Syncs += o.Syncs
	st.Rotations += o.Rotations
	st.Compactions += o.Compactions
	st.Latched += o.Latched
}

// RecoveryStats describe what Open replayed.
type RecoveryStats struct {
	Segments  int           // segment files replayed
	Records   int           // records applied
	Bytes     int64         // framed bytes read
	TornTails int           // segments truncated at a torn/corrupt tail
	Mailboxes int           // mailboxes reconstructed
	Messages  int64         // stored messages reconstructed
	Elapsed   time.Duration // wall time of the replay
}

type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// wal is the durable half of a Store; nil on memory-only stores.
type wal struct {
	dir          string
	fsync        FsyncMode
	segmentBytes int64
	compactBytes int64
	logs         []*shardLog
	lastStart    time.Time
	recovery     RecoveryStats

	errp   atomic.Pointer[error] // first append failure; store keeps serving from memory
	closed atomic.Bool

	appends     atomic.Int64
	bytes       atomic.Int64
	appendNs    atomic.Int64
	syncs       atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
}

// shardLog is one shard's segment chain. All fields are guarded by the
// owning shard's write lock — appends, rotation, and compaction only happen
// inside the mutating calls, which hold it.
type shardLog struct {
	dir          string
	f            *os.File
	seq          uint64 // sequence number of the open segment
	size         int64  // bytes in the open segment
	sinceCompact int64  // bytes appended since the last snapshot
	scratch      []byte // records awaiting commit; empty between commits, a reusable encode buffer
	// ops is the journal buffer lent to whichever of the shard's mailboxes is
	// being mutated (Store.lend) and taken back, cleared, by logOps.
	ops []mail.Op
}

// Open recovers (or creates) a durable store rooted at dir with the given
// shard count, replaying snapshot and WAL segments into a warm Store.
func Open(dir string, shards int) (*Store, error) {
	return OpenOptions(Options{Dir: dir, Shards: shards})
}

// OpenOptions is Open with full control over fsync and segment policy.
func OpenOptions(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("mailstore: OpenOptions requires Dir")
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegmentBytes
	}
	if o.compactBytes <= 0 {
		o.compactBytes = defaultCompactBytes
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("mailstore: %w", err)
	}
	shards := o.Shards
	mPath := filepath.Join(o.Dir, manifestName)
	raw, err := os.ReadFile(mPath)
	fresh := errors.Is(err, os.ErrNotExist)
	if err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil || m.Version != 1 || m.Shards <= 0 {
			return nil, fmt.Errorf("mailstore: bad manifest %s", mPath)
		}
		if shards > 0 && roundShards(shards) != m.Shards {
			return nil, fmt.Errorf("mailstore: shard count %d conflicts with existing store (%d shards)",
				shards, m.Shards)
		}
		shards = m.Shards
	} else if !fresh {
		return nil, fmt.Errorf("mailstore: %w", err)
	}

	s := New(shards)
	w := &wal{
		dir:          o.Dir,
		fsync:        o.Fsync,
		segmentBytes: o.segmentBytes,
		compactBytes: o.compactBytes,
		logs:         make([]*shardLog, len(s.shards)),
	}
	s.w = w
	if fresh { // written once: a reopen that rewrote it could be killed mid-write
		raw, _ := json.Marshal(manifest{Version: 1, Shards: len(s.shards)}) // two ints: cannot fail
		f, err := publish(mPath, raw, "manifest")
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			return nil, err
		}
	}

	start := time.Now()
	for i := range s.shards {
		lg := &shardLog{dir: filepath.Join(o.Dir, fmt.Sprintf("shard-%04d", i))}
		w.logs[i] = lg
		if err := os.MkdirAll(lg.dir, 0o755); err != nil {
			return nil, fmt.Errorf("mailstore: %w", err)
		}
		if err := s.recoverShard(i, lg); err != nil {
			s.Close()
			return nil, err
		}
	}
	// Rebuild counters and arm journaling only after every shard replayed.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.msgs, sh.bytes, sh.held = 0, 0, 0
		for _, mb := range sh.boxes {
			sh.account(mb, 0, 0)
			w.recovery.Messages += int64(mb.Len())
			mb.EnableJournal()
		}
		w.recovery.Mailboxes += len(sh.boxes)
	}
	w.recovery.Elapsed = time.Since(start)
	w.lastStart = time.Now()
	return s, nil
}

// recoverShard replays shard i's segments in sequence order, starting at the
// newest snapshot (older files are stale history from an interrupted
// compaction and are deleted), and leaves the newest file open for appending
// (creating seg 1 if none exist). A torn or corrupt record in the newest
// segment truncates it there; in a sealed segment it fails recovery.
func (s *Store) recoverShard(i int, lg *shardLog) error {
	w := s.w
	entries, err := os.ReadDir(lg.dir)
	if err != nil {
		return fmt.Errorf("mailstore: %w", err)
	}
	type seg struct {
		seq  uint64
		snap bool
		path string
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Snapshot interrupted before its rename: never replayed, and
			// the compaction that produced it never deleted anything.
			os.Remove(filepath.Join(lg.dir, name))
			continue
		}
		seq, snap, ok := parseSegName(name)
		if !ok {
			continue
		}
		segs = append(segs, seg{seq: seq, snap: snap, path: filepath.Join(lg.dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	// Replay begins at the newest snapshot: everything below it is history a
	// compaction already superseded. If the deleting process died mid-loop
	// the prefix still exists, and replaying it would re-apply Deposits whose
	// Drain/Evict records were already unlinked — resurrecting delivered
	// mail. Finish the interrupted deletion instead.
	first := 0
	for k, sg := range segs {
		if sg.snap {
			first = k
		}
	}
	for _, sg := range segs[:first] {
		if err := os.Remove(sg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("mailstore: drop stale segment: %w", err)
		}
	}
	segs = segs[first:]

	sh := &s.shards[i]
	var total int64
	for k, sg := range segs {
		last := k == len(segs)-1
		buf, err := os.ReadFile(sg.path)
		if err != nil {
			return fmt.Errorf("mailstore: %w", err)
		}
		if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != string(segMagic) {
			if last {
				// A crash can tear even the 8-byte header of a freshly
				// rotated segment; rewrite it below.
				if err := os.Truncate(sg.path, 0); err != nil {
					return fmt.Errorf("mailstore: %w", err)
				}
				w.recovery.TornTails++
				buf = nil
			} else {
				return fmt.Errorf("mailstore: %s: bad segment header", sg.path)
			}
		}
		off := 0
		if buf != nil {
			off = len(segMagic)
		}
		for off < len(buf) {
			rec, n, err := ReadRecord(buf[off:])
			if err != nil {
				if !last {
					return fmt.Errorf("mailstore: %s at offset %d: %w", sg.path, off, err)
				}
				if terr := os.Truncate(sg.path, int64(off)); terr != nil {
					return fmt.Errorf("mailstore: %w", terr)
				}
				w.recovery.TornTails++
				buf = buf[:off]
				break
			}
			mb, ok := sh.boxes[rec.User]
			if !ok {
				mb = sh.newBox(rec.User)
			}
			mb.Apply(rec.Op)
			w.recovery.Records++
			off += n
		}
		w.recovery.Segments++
		w.recovery.Bytes += int64(len(buf))
		total += int64(len(buf))
		if last {
			lg.seq = sg.seq
			lg.size = int64(len(buf))
		}
	}

	if len(segs) == 0 {
		lg.seq = 1
		f, err := createSegment(lg.dir, segPath(lg.dir, lg.seq))
		if err != nil {
			return err
		}
		lg.f, lg.size = f, int64(len(segMagic))
		return nil
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("mailstore: %w", err)
	}
	if lg.size < int64(len(segMagic)) {
		// Truncated-to-zero tail segment from the header-tear case above.
		if _, err := f.Write(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("mailstore: %w", err)
		}
		lg.size = int64(len(segMagic))
	}
	lg.f = f
	// Everything replayed is history of unknown snapshot share; charging it
	// all to sinceCompact at worst triggers one early compaction, after
	// which the accounting is exact again.
	lg.sinceCompact = total
	return nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016d.wal", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.wal", seq))
}

// parseSegName decodes a segment file name into its sequence number and
// whether it is a snapshot. Segments and snapshots share one seq space, so
// sorting by seq alone reconstructs the append order.
func parseSegName(name string) (seq uint64, snap bool, ok bool) {
	if !strings.HasSuffix(name, ".wal") {
		return 0, false, false
	}
	num := name[:len(name)-len(".wal")]
	switch {
	case strings.HasPrefix(num, "seg-"):
		num = num[len("seg-"):]
	case strings.HasPrefix(num, "snap-"):
		snap = true
		num = num[len("snap-"):]
	default:
		return 0, false, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil || seq == 0 {
		return 0, false, false
	}
	return seq, snap, true
}

// publish writes buf to path by way of path.tmp — written, synced, renamed
// into place and the rename synced — so a kill at any point leaves either
// nothing at path or all of buf, and returns the file, still open. A temp file
// a killed publish left behind is overwritten by the next.
func publish(path string, buf []byte, what string) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mailstore: %s: %w", what, err)
	}
	if _, err = f.Write(buf); err == nil {
		if err = f.Sync(); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mailstore: %s: %w", what, err)
	}
	return f, nil
}

// syncDir fsyncs a directory so renames/creates/unlinks inside it survive an
// OS crash — without it the file's own fsync says nothing about whether its
// directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("mailstore: sync dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("mailstore: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("mailstore: sync dir: %w", cerr)
	}
	return nil
}

func createSegment(dir, path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mailstore: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("mailstore: %w", err)
	}
	// The new segment's directory entry must be durable before anything is
	// appended to it, or an OS crash could lose the whole file while older
	// state (e.g. the unlinks of a later compaction) survives.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// lend hands shard i's journal buffer to mb for the mutation about to run.
// Called with the shard write lock held, which is what makes one buffer per
// shard enough. A no-op on memory stores.
func (s *Store) lend(i int, mb *mail.Mailbox) {
	if s.w != nil {
		mb.LendJournal(s.w.logs[i].ops)
	}
}

// journal drains the mailbox journal — the buffer lend gave it — into shard
// i's records awaiting commit, and keeps the buffer for the next mutation,
// cleared so it pins no message body. Called with the shard write lock held.
func (s *Store) journal(i int, user names.Name, mb *mail.Mailbox) {
	lg, ops := s.w.logs[i], mb.TakeOps()
	for _, op := range ops {
		start := len(lg.scratch)
		lg.scratch = AppendRecord(lg.scratch, Record{User: user, Op: op})
		// ReadRecord treats frames beyond maxPayload as corruption, so a
		// record that large must never reach the file: it would be
		// unreplayable and poison every record behind it. Latch the error, so
		// commit writes nothing; memory state stays ahead of disk, exactly as
		// for any other append failure.
		if p := len(lg.scratch) - start - frameHeader; p > maxPayload {
			s.w.fail(fmt.Errorf("mailstore: record for %v: %w: payload %d > %d bytes",
				user, ErrRecordTooLarge, p, maxPayload))
			break
		}
	}
	clear(ops)
	lg.ops = ops[:0]
}

// commit writes shard i's records awaiting commit in one write — and one
// fsync under FsyncAlways — then checks the log for compaction and rotation.
// Errors are latched (Err) and the store keeps serving from memory. Called
// with the shard write lock held.
func (s *Store) commit(i int) {
	w, lg := s.w, s.w.logs[i]
	buf := lg.scratch
	lg.scratch = buf[:0]
	if len(buf) == 0 || w.errp.Load() != nil || w.closed.Load() {
		return
	}

	start := time.Now()
	if _, err := lg.f.Write(buf); err != nil {
		w.fail(fmt.Errorf("mailstore: wal append: %w", err))
		return
	}
	if w.fsync == FsyncAlways {
		if err := lg.f.Sync(); err != nil {
			w.fail(fmt.Errorf("mailstore: wal sync: %w", err))
			return
		}
		w.syncs.Add(1)
	}
	w.appendNs.Add(time.Since(start).Nanoseconds())
	w.appends.Add(1)
	w.bytes.Add(int64(len(buf)))
	lg.size += int64(len(buf))
	lg.sinceCompact += int64(len(buf))

	sh := &s.shards[i]
	if lg.sinceCompact >= w.compactBytes && lg.sinceCompact >= sh.bytes {
		if err := s.compactShard(i); err != nil {
			w.fail(err)
		}
		return
	}
	if lg.size >= w.segmentBytes {
		if err := lg.rotate(); err != nil {
			w.fail(err)
			return
		}
		w.rotations.Add(1)
		w.syncs.Add(1)
	}
}

// fail latches the first WAL error.
func (w *wal) fail(err error) { w.errp.CompareAndSwap(nil, &err) }

// rotate seals the open segment (sync) and starts the next one.
func (lg *shardLog) rotate() error {
	if err := lg.f.Sync(); err != nil {
		return fmt.Errorf("mailstore: seal segment: %w", err)
	}
	if err := lg.f.Close(); err != nil {
		return fmt.Errorf("mailstore: seal segment: %w", err)
	}
	lg.seq++
	f, err := createSegment(lg.dir, segPath(lg.dir, lg.seq))
	if err != nil {
		return err
	}
	lg.f, lg.size = f, int64(len(segMagic))
	return nil
}

// suppressChunk bounds the IDs per snapshot Suppress record so one record
// stays far below maxPayload even for a mailbox with a huge seen-set.
const suppressChunk = 64 << 10

// compactShard writes shard i's entire live state as a snapshot segment and
// deletes every older file. Called with the shard write lock held. The
// snapshot is ordinary records — per user (sorted): the stored messages as
// Deposit ops in arrival order, then Suppress ops for the seen-but-not-
// stored IDs. Deposits must precede suppressions: the other order would
// dup-suppress the deposits on replay. The snapshot's "snap-" name is what
// makes the deletions crash-safe: recovery starts at the newest snapshot, so
// history that survives a kill mid-deletion is ignored, not replayed.
func (s *Store) compactShard(i int) error {
	w, lg, sh := s.w, s.w.logs[i], &s.shards[i]

	users := make([]names.Name, 0, len(sh.boxes))
	for u := range sh.boxes {
		users = append(users, u)
	}
	slices.SortFunc(users, names.Compare)

	buf := lg.scratch[:0]
	buf = append(buf, segMagic...)
	for _, u := range users {
		mb := sh.boxes[u]
		stored := make(map[mail.MessageID]bool, mb.Len())
		for _, st := range mb.Peek() {
			stored[st.ID] = true
			start := len(buf)
			buf = AppendRecord(buf, Record{User: u, Op: mail.Op{
				Kind: mail.OpDeposit, Msg: st.Message, At: st.ArrivedAt, Read: st.Read,
			}})
			if p := len(buf) - start - frameHeader; p > maxPayload {
				lg.scratch = buf[:0]
				return fmt.Errorf("mailstore: snapshot record for %v: %w: payload %d > %d bytes",
					u, ErrRecordTooLarge, p, maxPayload)
			}
		}
		var unstored []mail.MessageID
		for _, id := range mb.SeenIDs() {
			if !stored[id] {
				unstored = append(unstored, id)
			}
		}
		for len(unstored) > 0 {
			n := min(len(unstored), suppressChunk)
			buf = AppendRecord(buf, Record{User: u, Op: mail.Op{Kind: mail.OpSuppress, IDs: unstored[:n]}})
			unstored = unstored[n:]
		}
	}
	lg.scratch = buf[:0] // kept for the next records; the snapshot is written from buf below

	lg.seq++
	// publish syncs the rename before history is unlinked below: an OS crash
	// could otherwise keep the unlinks but lose the snapshot.
	f, err := publish(snapPath(lg.dir, lg.seq), buf, "snapshot")
	if err != nil {
		return err
	}
	// The snapshot is durable under its final name; retire the history.
	lg.f.Close()
	entries, err := os.ReadDir(lg.dir)
	if err != nil {
		f.Close()
		return fmt.Errorf("mailstore: compact: %w", err)
	}
	for _, e := range entries {
		seq, _, ok := parseSegName(e.Name())
		if !ok || seq >= lg.seq {
			continue
		}
		if err := os.Remove(filepath.Join(lg.dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			f.Close()
			return fmt.Errorf("mailstore: compact: %w", err)
		}
	}
	lg.f, lg.size, lg.sinceCompact = f, int64(len(buf)), 0
	w.compactions.Add(1)
	w.syncs.Add(1)
	return nil
}

// LastStartTime is the wall-clock instant recovery completed — the real
// "server up since" stamp §3.1.2c's GetMail compares against. Zero for
// memory-only stores.
func (s *Store) LastStartTime() time.Time {
	if s.w == nil {
		return time.Time{}
	}
	return s.w.lastStart
}

// WALStats snapshots the write-path counters; ok is false on memory stores.
func (s *Store) WALStats() (st WALStats, ok bool) {
	if s.w == nil {
		return WALStats{}, false
	}
	st = WALStats{
		Appends:     s.w.appends.Load(),
		Bytes:       s.w.bytes.Load(),
		AppendNs:    s.w.appendNs.Load(),
		Syncs:       s.w.syncs.Load(),
		Rotations:   s.w.rotations.Load(),
		Compactions: s.w.compactions.Load(),
	}
	if s.Err() != nil {
		st.Latched = 1
	}
	return st, true
}

// RecoveryStats reports what Open replayed; ok is false on memory stores.
func (s *Store) RecoveryStats() (st RecoveryStats, ok bool) {
	if s.w == nil {
		return RecoveryStats{}, false
	}
	return s.w.recovery, true
}

// Err returns the first WAL append error, if any. After an append error the
// store keeps serving from memory but stops logging; the owner should
// surface the error and treat the on-disk state as stale.
func (s *Store) Err() error {
	if s.w == nil {
		return nil
	}
	if p := s.w.errp.Load(); p != nil {
		return *p
	}
	return nil
}

// Close syncs and closes every shard log. Idempotent; nil for memory
// stores. The store remains readable (memory state is untouched) but
// further mutations are no longer logged.
func (s *Store) Close() error {
	if s.w == nil || !s.w.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for i, lg := range s.w.logs {
		if lg == nil {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		if lg.f != nil {
			if err := lg.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := lg.f.Close(); err != nil && first == nil {
				first = err
			}
			lg.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}

func roundShards(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return size
}
