// Package mail defines the message model of the mail systems: envelopes,
// message identifiers, per-user mailboxes with duplicate suppression, and
// the retention ("message archiving and clean-up", §3.1.2c) policy that
// protects server storage.
package mail

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// MessageID uniquely identifies a message: the node that accepted the
// submission plus a per-node sequence number.
type MessageID struct {
	Node graph.NodeID
	Seq  uint64
}

// String formats the ID as "m<node>-<seq>" — obs.Key's text, so the format
// and its parser (obs.ParseKey) live in one place.
func (id MessageID) String() string { return id.TraceKey().String() }

// AppendTo appends the ID's String() form to dst, without building it.
func (id MessageID) AppendTo(dst []byte) []byte { return id.TraceKey().AppendTo(dst) }

// TraceKey is the ID as the lifecycle tracer's value key; stamping by value
// keeps String off the delivery path.
func (id MessageID) TraceKey() obs.Key { return obs.Key{Node: int64(id.Node), Seq: id.Seq} }

// IsZero reports whether the ID is unset.
func (id MessageID) IsZero() bool { return id == MessageID{} }

// Status tracks a message through the delivery pipeline of §3.1.2.
type Status int

// Message statuses, in pipeline order.
const (
	StatusComposed  Status = iota + 1 // built by the user interface
	StatusSubmitted                   // accepted by a mail server
	StatusRelayed                     // forwarded toward the recipient's region/server
	StatusBuffered                    // stored at the recipient's authority server
	StatusDelivered                   // retrieved by the recipient's user interface
	StatusRead                        // read by the recipient
)

func (s Status) String() string {
	switch s {
	case StatusComposed:
		return "composed"
	case StatusSubmitted:
		return "submitted"
	case StatusRelayed:
		return "relayed"
	case StatusBuffered:
		return "buffered"
	case StatusDelivered:
		return "delivered"
	case StatusRead:
		return "read"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Message is a mail message: envelope plus content.
type Message struct {
	ID          MessageID
	From        names.Name
	To          []names.Name
	Subject     string
	Body        string
	SubmittedAt sim.Time
	// Expansions counts how many distribution-list expansions this copy
	// has been through; servers drop copies beyond a limit so cyclic group
	// definitions cannot loop mail forever.
	Expansions int
	// Parts carries optional typed multimedia content (§5 future work).
	Parts []Part
}

// Size is the accounted storage size of the message in bytes (content and
// typed parts; the envelope is bookkeeping).
func (m Message) Size() int { return len(m.Subject) + len(m.Body) + m.PartsSize() }

// Stored is a message held in a mailbox with its arrival metadata.
type Stored struct {
	Message
	ArrivedAt sim.Time
	Read      bool
}

// OpKind identifies a primitive mailbox mutation for journaling. Every
// public Mailbox mutation decomposes into these five primitives, which is
// what lets a durability layer log arbitrary Update closures without
// understanding them: it records what the closure *did*, not what it was.
type OpKind uint8

// Primitive mailbox mutations, in rough pipeline order.
const (
	OpDeposit  OpKind = iota + 1 // store one message (Msg, At, Read)
	OpDrain                      // remove all stored messages, keep seen-set
	OpMarkRead                   // flag stored messages read (IDs)
	OpEvict                      // remove stored messages by ID, keep seen-set (IDs)
	OpSuppress                   // add IDs to the seen-set without storing (IDs)
)

// Op is one primitive mailbox mutation, the unit of the durability journal.
// Replaying a mailbox's ops in order against an empty mailbox reproduces its
// exact state: stored messages in arrival order, read flags, and the
// duplicate-suppression memory.
type Op struct {
	Kind OpKind
	Msg  Message     // OpDeposit: the stored message
	At   sim.Time    // OpDeposit: arrival time
	Read bool        // OpDeposit: already read (snapshot replay)
	IDs  []MessageID // OpMarkRead, OpEvict, OpSuppress
}

// Mailbox is one user's message store at one server. Messages are kept in
// arrival order; duplicate deposits of the same MessageID are suppressed.
// The zero value is not usable; create with NewMailbox.
type Mailbox struct {
	owner names.Name
	msgs  []Stored
	seen  IDSet
	bytes int

	journaling bool
	journal    []Op
}

// NewMailbox returns an empty mailbox for the named user.
func NewMailbox(owner names.Name) *Mailbox {
	return &Mailbox{owner: owner}
}

// Owner returns the mailbox owner's name.
func (b *Mailbox) Owner() names.Name { return b.owner }

// EnableJournal turns on op journaling: every state-changing mutation from
// here on is recorded as an Op until collected with TakeOps. No-op mutations
// (duplicate deposits, empty drains, misses) are not journaled.
func (b *Mailbox) EnableJournal() { b.journaling = true }

// LendJournal gives the mailbox a buffer to journal the next mutation into,
// in place of one it would allocate; TakeOps hands it back. A store whose
// mutations are serialised and each followed by TakeOps can pass one buffer
// round all its mailboxes. Only an empty journal may be lent to.
func (b *Mailbox) LendJournal(buf []Op) { b.journal = buf[:0] }

// TakeOps returns and clears the journaled ops accumulated since the last
// call. The caller owns the returned slice.
func (b *Mailbox) TakeOps() []Op {
	ops := b.journal
	b.journal = nil
	return ops
}

// Deposit stores a message, reporting whether it was newly stored (false
// for duplicates).
func (b *Mailbox) Deposit(m Message, at sim.Time) bool {
	if !b.seen.Add(m.ID) {
		return false
	}
	if b.msgs == nil {
		b.msgs = slots.Get().(*[1]Stored)[:0]
	}
	b.msgs = append(b.msgs, Stored{Message: m, ArrivedAt: at})
	b.bytes += m.Size()
	if b.journaling {
		b.journal = append(b.journal, Op{Kind: OpDeposit, Msg: m, At: at})
	}
	return true
}

// slots is where an empty mailbox gets the one-slot array its next message
// goes into: most mailboxes hold one message between two retrievals, and the
// drain that empties one gives its array away. Release brings it back.
var slots = sync.Pool{New: func() any { return new([1]Stored) }}

// Release is for the last holder of a batch a mailbox drained and gave away
// (Drain, and from there Inbox.Take): once nothing will read msgs again, a
// batch that is one message filling its array goes back, cleared, to the next
// Deposit into an empty mailbox. Anything else is left to the garbage
// collector, so a caller releases what it was handed without looking — but
// never one element of an array something else still reads: whoever splits a
// batch keeps the pieces away from here. (A one-message batch its mailbox
// compacted out of a longer array may come clipped to look like a slot; its
// holder owns that whole array, whose other slots Remove and Cleanup cleared.)
func Release(msgs []Stored) {
	if len(msgs) != 1 || cap(msgs) != 1 {
		return
	}
	slot := (*[1]Stored)(msgs)
	slot[0] = Stored{}
	if AfterRelease != nil {
		AfterRelease(&slot[0])
	}
	slots.Put(slot)
}

// AfterRelease, when a test sets it (in its TestMain: it is read
// unsynchronised), is handed every slot Release has just cleared. The test
// scribbles on the slot, so a holder that reads a batch it has released sees
// nonsense and not plausible zeros; Deposit overwrites the slot whole.
var AfterRelease func(*Stored)

// Len reports the number of stored messages.
func (b *Mailbox) Len() int { return len(b.msgs) }

// Bytes reports the accounted content bytes currently stored.
func (b *Mailbox) Bytes() int { return b.bytes }

// Peek returns the stored messages without removing them.
func (b *Mailbox) Peek() []Stored {
	return append([]Stored(nil), b.msgs...)
}

// Drain removes and returns all stored messages, in arrival order. The
// duplicate-suppression memory is retained so re-deposits of drained
// messages stay suppressed (a retrieved message must not reappear when a
// recovering server replays traffic).
func (b *Mailbox) Drain() []Stored {
	out := b.msgs
	if b.journaling && len(out) > 0 {
		b.journal = append(b.journal, Op{Kind: OpDrain})
	}
	b.msgs = nil
	b.bytes = 0
	return out
}

// DrainFit is Drain for a caller that can pass on only so much at a time: fit
// is shown the stored messages, which it must neither write nor keep, and says
// how many of the leading ones to take. All of them is a Drain; fewer are
// removed by ID (Remove, the journaled eviction) and returned as the caller's
// own copy, and the rest stay for the next call. A nil fit takes everything.
func (b *Mailbox) DrainFit(fit func([]Stored) int) []Stored {
	n := len(b.msgs)
	if fit != nil {
		n = fit(b.msgs)
	}
	if n >= len(b.msgs) {
		return b.Drain()
	}
	out := append([]Stored(nil), b.msgs[:n]...)
	ids := make([]MessageID, n)
	for i := range out {
		ids[i] = out[i].ID
	}
	b.Remove(ids...)
	return out
}

// MarkRead flags a stored message as read. It reports whether the message
// was present.
func (b *Mailbox) MarkRead(id MessageID) bool {
	for i := range b.msgs {
		if b.msgs[i].ID == id {
			b.msgs[i].Read = true
			if b.journaling {
				b.journal = append(b.journal, Op{Kind: OpMarkRead, IDs: []MessageID{id}})
			}
			return true
		}
	}
	return false
}

// Forget removes an ID from the duplicate-suppression memory. Migration-style
// drains use it when a still-undelivered message leaves this mailbox for
// another server: the moving copy must stay depositable here, or a later
// reconfiguration routing it back would swallow it as a duplicate. Not
// journaled — callers that persist mailboxes must not combine it with
// journaling. It reports whether the ID was present.
func (b *Mailbox) Forget(id MessageID) bool { return b.seen.Delete(id) }

// Suppress adds an ID to the duplicate-suppression memory without storing a
// message, reporting whether the ID was new. Snapshots use it to persist the
// seen-set of drained messages separately from the stored ones.
func (b *Mailbox) Suppress(id MessageID) bool {
	if !b.seen.Add(id) {
		return false
	}
	if b.journaling {
		b.journal = append(b.journal, Op{Kind: OpSuppress, IDs: []MessageID{id}})
	}
	return true
}

// removeScanMax is the longest ID list Remove scans without indexing it.
const removeScanMax = 8

// Remove evicts stored messages by ID, retaining the duplicate-suppression
// memory, and reports how many were present. It is the replay form of
// Cleanup's eviction: the policy decision was made once, at journaling time;
// replay only repeats its outcome.
func (b *Mailbox) Remove(ids ...MessageID) int {
	if len(ids) == 0 {
		return 0
	}
	// A short list — one ID, from Cleanup's replay, is the usual case — is
	// scanned per stored message; only a long one is worth indexing first.
	var index map[MessageID]struct{}
	if len(ids) > removeScanMax {
		index = make(map[MessageID]struct{}, len(ids))
		for _, id := range ids {
			index[id] = struct{}{}
		}
	}
	removed := 0
	var removedIDs []MessageID
	kept := b.msgs[:0]
	for i := range b.msgs {
		_, drop := index[b.msgs[i].ID]
		if index == nil {
			drop = slices.Contains(ids, b.msgs[i].ID)
		}
		if drop {
			b.bytes -= b.msgs[i].Size()
			removed++
			removedIDs = append(removedIDs, b.msgs[i].ID)
			continue
		}
		kept = append(kept, b.msgs[i])
	}
	clear(b.msgs[len(kept):]) // a vacated slot pins no body
	b.msgs = kept
	if b.journaling && removed > 0 {
		b.journal = append(b.journal, Op{Kind: OpEvict, IDs: removedIDs})
	}
	return removed
}

// SeenIDs returns the duplicate-suppression memory sorted by (Node, Seq), a
// deterministic order snapshots rely on.
func (b *Mailbox) SeenIDs() []MessageID {
	out := make([]MessageID, 0, b.seen.Len())
	b.seen.Each(func(id MessageID) { out = append(out, id) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// MaxSeenSeq returns the highest sequence number attributed to node in the
// duplicate-suppression memory (0 if none) — the floor a restarted ID
// allocator must resume above, or a fresh message could reuse a delivered
// ID and be swallowed as a duplicate.
func (b *Mailbox) MaxSeenSeq(node graph.NodeID) uint64 {
	var maxSeq uint64
	b.seen.Each(func(id MessageID) {
		if id.Node == node && id.Seq > maxSeq {
			maxSeq = id.Seq
		}
	})
	return maxSeq
}

// Apply replays one journaled op against the mailbox. Replay of a recorded
// history must happen before EnableJournal, or the replayed ops would be
// journaled again.
func (b *Mailbox) Apply(op Op) {
	switch op.Kind {
	case OpDeposit:
		if b.Deposit(op.Msg, op.At) && op.Read {
			b.msgs[len(b.msgs)-1].Read = true
		}
	case OpDrain:
		b.Drain()
	case OpMarkRead:
		for _, id := range op.IDs {
			b.MarkRead(id)
		}
	case OpEvict:
		b.Remove(op.IDs...)
	case OpSuppress:
		for _, id := range op.IDs {
			b.Suppress(id)
		}
	}
}

// Retention is the archiving/clean-up policy of §3.1.2c: "some policy of
// message archiving and clean-up must be implemented to protect the servers'
// storage from being used up". Zero fields disable the corresponding limit.
type Retention struct {
	MaxMessages int      // keep at most this many messages (oldest evicted first)
	MaxAge      sim.Time // evict messages older than this
	ReadOnly    bool     // only evict messages already read
}

// Cleanup applies the policy at virtual time now and returns the evicted
// messages (oldest first).
func (b *Mailbox) Cleanup(p Retention, now sim.Time) []Stored {
	var evicted []Stored
	evict := func(i int) bool {
		s := b.msgs[i]
		if p.ReadOnly && !s.Read {
			return false
		}
		evicted = append(evicted, s)
		b.bytes -= s.Size()
		return true
	}
	if p.MaxAge > 0 {
		kept := b.msgs[:0]
		for i := range b.msgs {
			if now-b.msgs[i].ArrivedAt > p.MaxAge && evict(i) {
				continue
			}
			kept = append(kept, b.msgs[i])
		}
		clear(b.msgs[len(kept):])
		b.msgs = kept
	}
	if p.MaxMessages > 0 && len(b.msgs) > p.MaxMessages {
		over := len(b.msgs) - p.MaxMessages
		kept := b.msgs[:0]
		for i := range b.msgs {
			if over > 0 && evict(i) {
				over--
				continue
			}
			kept = append(kept, b.msgs[i])
		}
		clear(b.msgs[len(kept):])
		b.msgs = kept
	}
	if b.journaling && len(evicted) > 0 {
		ids := make([]MessageID, len(evicted))
		for i := range evicted {
			ids[i] = evicted[i].ID
		}
		b.journal = append(b.journal, Op{Kind: OpEvict, IDs: ids})
	}
	return evicted
}

// ContentType classifies a message part. §5 anticipates that "electronic
// mail systems should be able to transfer messages that consist of
// different forms of data such as voice, video, graphs, and facsimile";
// parts make the envelope carry them uniformly.
type ContentType string

// Content types from the paper's §5 list plus plain text.
const (
	ContentText      ContentType = "text"
	ContentVoice     ContentType = "voice"
	ContentVideo     ContentType = "video"
	ContentGraph     ContentType = "graph"
	ContentFacsimile ContentType = "facsimile"
)

// Part is one typed body part of a multimedia message.
type Part struct {
	Type ContentType
	Data []byte
}

// AddPart appends a typed part to the message, copying data.
func (m *Message) AddPart(t ContentType, data []byte) {
	m.Parts = append(m.Parts, Part{Type: t, Data: append([]byte(nil), data...)})
}

// PartsSize is the total byte size of all typed parts.
func (m Message) PartsSize() int {
	total := 0
	for _, p := range m.Parts {
		total += len(p.Data)
	}
	return total
}
