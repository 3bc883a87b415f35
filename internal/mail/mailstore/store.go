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
//   - Users() and Holding() return names in sorted order, keeping audits and
//     Evacuate deterministic even though shard-internal map order is not.
//
// The counters are maintained by diffing Mailbox.Len()/Bytes() around every
// mutation while the shard lock is held (shard.account), so any Mailbox
// operation — Deposit, Drain, Remove — keeps them exact without the Mailbox
// type knowing about the store.
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
	held  int64 // mailboxes holding at least one message
	// terms is the optional per-shard term index (see termindex.go): term →
	// entries of the message table msgTerms whose message contains it; an
	// entry holds its message's terms and the mailboxes buffering it. Both
	// nil until EnableTermIndex.
	terms    map[string]map[*msgTerms]struct{}
	msgTerms map[msgKey]*msgTerms
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

// UpdateExisting runs fn on the user's mailbox under the shard's write lock
// and reconciles the shard counters with whatever fn did; it reports whether
// the user had a mailbox (fn is not called otherwise). A drained-empty mailbox
// still exists: its duplicate-suppression memory must survive. Mailboxes are
// created by Deposit, and only Deposit and Drain keep the term index exact.
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
	sh.account(mb, l0, b0)
	if s.w != nil {
		s.journal(i, user, mb)
		s.commit(i)
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
// terms are indexed under the same shard lock. It is DepositBatch of one.
func (s *Store) Deposit(user names.Name, m mail.Message, at sim.Time) bool {
	c := [1]Copy{{User: user, Msg: m, At: at}}
	s.DepositBatch(c[:])
	return c[0].Fresh
}

// Copy is one recipient copy of a DepositBatch.
type Copy struct {
	User  names.Name
	Msg   mail.Message
	At    sim.Time
	Fresh bool // set by DepositBatch: false for a duplicate
	shard int  // DepositBatch's own: -1 once deposited
}

// DepositBatch is Deposit of every copy in slice order, setting Fresh, with
// each shard touched locked once and, on a durable store, its records (the
// ones Deposit would log, in order) written in one commit: one write, one
// fsync under FsyncAlways, one compaction and rotation check.
func (s *Store) DepositBatch(cs []Copy) {
	for i := range cs {
		cs[i].shard = s.shardIndex(cs[i].User)
	}
	for i := range cs {
		k := cs[i].shard
		if k < 0 {
			continue
		}
		sh := &s.shards[k]
		sh.mu.Lock()
		for j := i; j < len(cs); j++ {
			if cs[j].shard == k {
				cs[j].Fresh = s.depositLocked(k, &cs[j])
				cs[j].shard = -1
			}
		}
		if s.w != nil {
			s.commit(k)
		}
		sh.mu.Unlock()
	}
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
func (s *Store) TotalMessages() int64 { return s.sum(func(sh *shard) int64 { return sh.msgs }) }

// TotalBytes reports the accounted content bytes buffered across all
// mailboxes — an O(shards) counter sum, not a scan.
func (s *Store) TotalBytes() int64 { return s.sum(func(sh *shard) int64 { return sh.bytes }) }

// sum adds f over the shards, each read under its read lock.
func (s *Store) sum(f func(*shard) int64) int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += f(sh)
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
	return int(s.sum(func(sh *shard) int64 { return int64(len(sh.boxes)) }))
}

// Users returns every mailbox owner, drained-empty ones included, sorted by
// name — the deterministic order audits rely on.
func (s *Store) Users() []names.Name { return s.owners(false) }

// Holding returns the owners whose mailbox holds at least one message, sorted
// by name, and nil when none does: all a §3.2 rehash or a §3.1.3c removal can
// have to hand on. A shard that holds nothing is not walked.
func (s *Store) Holding() []names.Name { return s.owners(true) }

// owners is Users (held false) and Holding, in one allocation sized by a first
// pass over the shard counters; each shard is read under its read lock.
func (s *Store) owners(held bool) []names.Name {
	count := func(sh *shard) int64 { return int64(len(sh.boxes)) }
	if held {
		count = func(sh *shard) int64 { return sh.held }
	}
	n := int(s.sum(count))
	if n == 0 {
		return nil
	}
	out := make([]names.Name, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if !held || sh.held > 0 {
			for u, mb := range sh.boxes {
				if !held || mb.Len() > 0 {
					out = append(out, u)
				}
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// account folds a mutation of mb, which held l0 messages of b0 bytes before
// it, into the shard's counters. Called with the shard write lock held.
func (sh *shard) account(mb *mail.Mailbox, l0, b0 int) {
	sh.msgs += int64(mb.Len() - l0)
	sh.bytes += int64(mb.Bytes() - b0)
	switch {
	case l0 == 0 && mb.Len() > 0:
		sh.held++
	case l0 > 0 && mb.Len() == 0:
		sh.held--
	}
}
