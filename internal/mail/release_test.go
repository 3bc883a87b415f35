package mail

import (
	"os"
	"reflect"
	"testing"

	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// poison is what a released slot holds in this package's tests: a plausible
// message, so a reader of a batch it has released sees mail that was never
// sent and not plausible zeros.
var poison = Stored{
	Message: Message{ID: MessageID{Node: 666, Seq: 666}, From: owner, To: []names.Name{owner}, Subject: "poison", Body: "poison"},
	Read:    true,
}

func TestMain(m *testing.M) {
	AfterRelease = func(slot *Stored) { *slot = poison }
	os.Exit(m.Run())
}

// TestReleasedSlotPoisoned: the slot a released one-message batch was in is
// the next empty mailbox's — whole, whatever was scribbled on it — and costs
// that deposit no allocation; the scribble never reaches a mailbox.
func TestReleasedSlotPoisoned(t *testing.T) {
	a, b := NewMailbox(owner), NewMailbox(owner)
	a.Deposit(msg(1, "one"), 10)
	batch := a.Drain()
	slot := &batch[0]
	Release(batch)
	if !reflect.DeepEqual(*slot, poison) {
		t.Fatalf("released slot holds %+v: the hook runs on every release", *slot)
	}
	b.Deposit(msg(2, "two"), 20)
	got := b.Peek()
	if len(got) != 1 || got[0].ID.Seq != 2 || got[0].Body != "two" || got[0].ArrivedAt != 20 || got[0].Read {
		t.Fatalf("deposit into a recycled slot stored %+v", got)
	}
	if raceDetector { // sync.Pool drops a quarter of what it is given there
		return
	}
	if batch = b.Drain(); &batch[0] != slot {
		t.Error("the next deposit into an empty mailbox did not draw the released slot")
	}
}

// TestReleaseTakesOnlyOneSlotBatches: nothing but a one-message batch that
// fills its array is taken; what is not taken is not touched.
func TestReleaseTakesOnlyOneSlotBatches(t *testing.T) {
	b := NewMailbox(owner)
	b.Deposit(msg(1, "one"), 0)
	b.Deposit(msg(2, "two"), 0)
	two := b.Drain()
	for name, batch := range map[string][]Stored{
		"empty": nil, "two messages": two, "a prefix with room behind it": two[:1], "none of one": two[:0:1],
	} {
		Release(batch)
		if two[0].Body != "one" || two[1].Body != "two" {
			t.Fatalf("Release(%s) wrote to the batch: %+v", name, two)
		}
	}
}

// TestDrainFit: a caller that can carry only part of a mailbox gets the
// leading messages it asked for and the rest stay, in order, for its next
// call; the journal records an eviction by ID, which replays to the same
// mailbox, duplicate memory included.
func TestDrainFit(t *testing.T) {
	b := NewMailbox(owner)
	b.EnableJournal()
	for seq := uint64(1); seq <= 5; seq++ {
		b.Deposit(msg(seq, "body"), sim.Time(seq))
	}
	var shown int
	first := b.DrainFit(func(buffered []Stored) int { shown = len(buffered); return 2 })
	if shown != 5 || len(first) != 2 || first[0].ID.Seq != 1 || first[1].ID.Seq != 2 || b.Len() != 3 || b.Bytes() != 3*len("sbody") {
		t.Fatalf("DrainFit(2 of %d) = %+v, %d left holding %d bytes", shown, first, b.Len(), b.Bytes())
	}
	vacated := b.msgs[:5][3:]
	if !reflect.DeepEqual(vacated, make([]Stored, 2)) {
		t.Errorf("the slots the eviction vacated still hold %+v", vacated)
	}
	if b.Deposit(msg(1, "again"), 9) {
		t.Error("a message taken by DrainFit was deposited again")
	}
	rest := b.DrainFit(func(buffered []Stored) int { return len(buffered) })
	if len(rest) != 3 || rest[0].ID.Seq != 3 || rest[2].ID.Seq != 5 || b.Len() != 0 {
		t.Fatalf("second DrainFit = %+v, %d left", rest, b.Len())
	}
	if all := b.DrainFit(nil); len(all) != 0 {
		t.Fatalf("DrainFit(nil) of an empty mailbox = %+v", all)
	}
	ops := b.TakeOps()
	if len(ops) != 7 || ops[5].Kind != OpEvict || len(ops[5].IDs) != 2 || ops[6].Kind != OpDrain {
		t.Fatalf("journal = %+v, want five deposits, an eviction of two IDs, a drain", ops)
	}
	replayed := NewMailbox(owner)
	for _, op := range ops[:6] {
		replayed.Apply(op)
	}
	if got := replayed.Peek(); len(got) != 3 || got[0].ID.Seq != 3 || replayed.Deposit(msg(2, "again"), 9) {
		t.Fatalf("replay up to the eviction holds %+v (and forgot it ever had message 2: %v)", got, len(got) == 4)
	}
}
