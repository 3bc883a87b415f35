// Package mailstore provides the sharded mailbox store shared by both
// transports (internal/server on the simulated network, internal/livenet on
// the concurrent runtime). The flat map[names.Name]*mail.Mailbox it replaces
// made StoredBytes an O(mailboxes) scan and serialized every access behind
// one structure; the Store stripes mailboxes across N shards, each guarded by
// its own RWMutex and carrying running message/byte counters, so
//
//   - TotalBytes/TotalMessages are O(shards) counter sums, independent of the
//     number of mailboxes (the Server.StoredBytes fix);
//   - concurrent access from the live runtime contends per shard, not per
//     store;
//   - Users() returns names in sorted order, keeping audits and Evacuate
//     deterministic even though shard-internal map order is not.
//
// The counters are maintained by diffing Mailbox.Len()/Bytes() around every
// mutation while the shard lock is held, so any Mailbox operation — Deposit,
// Drain, Cleanup — keeps them exact without the Mailbox type knowing about
// the store.
package mailstore

import (
	"hash/fnv"
	"slices"
	"sync"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// DefaultShards is the shard count used when New is given n <= 0. 16 keeps
// per-shard maps small at simulation scale while bounding the TotalBytes sum.
const DefaultShards = 16

type shard struct {
	mu sync.RWMutex
	// boxes holds the shard's mailboxes. A mailbox is never removed or
	// replaced once created (a drained one stays for its duplicate memory),
	// so its pointer identifies the user for as long as the store lives —
	// the term index keys its postings by it.
	boxes map[names.Name]*mail.Mailbox
	msgs  int64
	bytes int64
	// terms is the optional per-shard term index (see termindex.go): term →
	// mailboxes whose buffered mail contains it, each with the number of
	// buffered messages that do. msgTerms is its MessageID → terms table.
	// Both nil until EnableTermIndex.
	terms    map[string]map[*mail.Mailbox]int32
	msgTerms map[mail.MessageID]*msgTerms
	// sk summarises the live term set as a counting Bloom filter (see
	// sketch.go); skGen counts sketch mutations so cached aggregates built
	// from a Snapshot can detect staleness. nil until EnableTermIndex.
	sk    *sketch.Counting
	skGen uint64
}

// Store is a lock-striped mailbox store. The zero value is not usable;
// create with New (memory-only) or Open/OpenOptions (durable: every
// mutation is journaled to a per-shard WAL, see durable.go).
type Store struct {
	shards []shard
	mask   uint64
	w      *wal // nil for memory-only stores
}

// New returns a store with n shards, rounded up to a power of two so shard
// selection is a mask. n <= 0 selects DefaultShards.
func New(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].boxes = make(map[names.Name]*mail.Mailbox)
	}
	return s
}

// Shards reports the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shard selects a user's shard with FNV-1a, which is deterministic across
// processes and runs — shard placement must not depend on process-random
// seeds or the simulation's seeded equivalence runs could diverge in
// allocation behavior.
func (s *Store) shard(user names.Name) *shard { return &s.shards[s.shardIndex(user)] }

func (s *Store) shardIndex(user names.Name) int {
	h := fnv.New64a()
	h.Write([]byte(user.Region))
	h.Write([]byte{0})
	h.Write([]byte(user.Host))
	h.Write([]byte{0})
	h.Write([]byte(user.User))
	return int(h.Sum64() & s.mask)
}

// Update runs fn on the user's mailbox under the shard's write lock,
// creating the mailbox if absent, and reconciles the shard counters with
// whatever fn did. All mutations must go through Update (or a helper built
// on it) or the counters drift.
func (s *Store) Update(user names.Name, fn func(*mail.Mailbox)) {
	i := s.shardIndex(user)
	sh := &s.shards[i]
	sh.mu.Lock()
	mb, ok := sh.boxes[user]
	if !ok {
		mb = mail.NewMailbox(user)
		if s.w != nil {
			mb.EnableJournal()
		}
		sh.boxes[user] = mb
	}
	l0, b0 := mb.Len(), mb.Bytes()
	s.lend(i, mb)
	fn(mb)
	sh.msgs += int64(mb.Len() - l0)
	sh.bytes += int64(mb.Bytes() - b0)
	if s.w != nil {
		s.logOps(i, user, mb)
	}
	sh.mu.Unlock()
}

// UpdateExisting is Update without mailbox creation; it reports whether the
// user had a mailbox (fn is not called otherwise). A drained-empty mailbox
// still exists: its duplicate-suppression memory must survive.
func (s *Store) UpdateExisting(user names.Name, fn func(*mail.Mailbox)) bool {
	i := s.shardIndex(user)
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mb, ok := sh.boxes[user]
	if !ok {
		return false
	}
	l0, b0 := mb.Len(), mb.Bytes()
	s.lend(i, mb)
	fn(mb)
	sh.msgs += int64(mb.Len() - l0)
	sh.bytes += int64(mb.Bytes() - b0)
	if s.w != nil {
		s.logOps(i, user, mb)
	}
	return true
}

// View runs fn on the user's mailbox under the shard's read lock. fn must
// not mutate the mailbox. It reports whether the user had a mailbox.
func (s *Store) View(user names.Name, fn func(*mail.Mailbox)) bool {
	sh := s.shard(user)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	mb, ok := sh.boxes[user]
	if !ok {
		return false
	}
	fn(mb)
	return true
}

// Deposit stores a message for a user, reporting whether it was newly stored
// (false for duplicates). With the term index enabled, a fresh deposit's
// terms are indexed under the same shard lock.
func (s *Store) Deposit(user names.Name, m mail.Message, at sim.Time) bool {
	return s.depositIndexed(user, m, at)
}

// Drain removes and returns the user's stored messages in arrival order,
// releasing their term-index references.
func (s *Store) Drain(user names.Name) []mail.Stored {
	return s.drainIndexed(user, nil)
}

// DrainFit is Drain taking only the leading messages fit accepts and leaving
// the rest buffered (mail.Mailbox.DrainFit); fit runs under the shard lock.
func (s *Store) DrainFit(user names.Name, fit func([]mail.Stored) int) []mail.Stored {
	return s.drainIndexed(user, fit)
}

// Peek returns the user's stored messages without removing them.
func (s *Store) Peek(user names.Name) []mail.Stored {
	var out []mail.Stored
	s.View(user, func(mb *mail.Mailbox) { out = mb.Peek() })
	return out
}

// Len reports how many messages are buffered for a user.
func (s *Store) Len(user names.Name) int {
	n := 0
	s.View(user, func(mb *mail.Mailbox) { n = mb.Len() })
	return n
}

// TotalMessages reports the number of buffered messages across all
// mailboxes — an O(shards) counter sum, not a scan.
func (s *Store) TotalMessages() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.msgs
		sh.mu.RUnlock()
	}
	return total
}

// TotalBytes reports the accounted content bytes buffered across all
// mailboxes — an O(shards) counter sum, not a scan.
func (s *Store) TotalBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.bytes
		sh.mu.RUnlock()
	}
	return total
}

// MaxSeenSeq returns the highest message sequence number attributed to node
// across every mailbox's duplicate-suppression memory. A recovered store
// remembers every ID it ever accepted; an ID allocator resuming after a
// process restart must start above this floor or its next message would be
// suppressed as a duplicate of a delivered one.
func (s *Store) MaxSeenSeq(node graph.NodeID) uint64 {
	var maxSeq uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, mb := range sh.boxes {
			if v := mb.MaxSeenSeq(node); v > maxSeq {
				maxSeq = v
			}
		}
		sh.mu.RUnlock()
	}
	return maxSeq
}

// NumUsers reports how many mailboxes exist (including drained-empty ones,
// which persist for duplicate suppression).
func (s *Store) NumUsers() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.boxes)
		sh.mu.RUnlock()
	}
	return n
}

// Users returns every mailbox owner, sorted by name — the deterministic
// iteration order audits and Evacuate rely on.
func (s *Store) Users() []names.Name {
	out := make([]names.Name, 0, s.NumUsers()) // sized up front: every §3.2 rehash lists every server's users
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for u := range sh.boxes {
			out = append(out, u)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, names.Compare)
	return out
}
