package mail

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sim"
)

// refSeen is the duplicate memory IDSet replaced: a plain map. It stays here
// as the model IDSet and Mailbox are checked against.
type refSeen map[MessageID]bool

// sameSet fails the test unless s holds exactly ref's IDs, by Has over the
// universe, by Len and by Each (every member once).
func sameSet(t *testing.T, ctx string, s *IDSet, ref refSeen, universe []MessageID) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", ctx, s.Len(), len(ref))
	}
	for _, id := range universe {
		if s.Has(id) != ref[id] {
			t.Fatalf("%s: Has(%v) = %v, want %v", ctx, id, s.Has(id), ref[id])
		}
	}
	each := refSeen{}
	s.Each(func(id MessageID) {
		if each[id] {
			t.Fatalf("%s: Each visited %v twice", ctx, id)
		}
		each[id] = true
	})
	if !reflect.DeepEqual(each, ref) {
		t.Fatalf("%s: Each visited %v, want %v", ctx, each, ref)
	}
}

// TestIDSetMatchesReference runs seeded add/has/delete programs against the
// map. The universe is nine IDs, the zero ID among them, so a program keeps
// crossing the inline → map boundary in both directions of size and hits
// present and absent IDs alike.
func TestIDSetMatchesReference(t *testing.T) {
	universe := []MessageID{{}, {Node: 0, Seq: 1}, {Node: 1, Seq: 0}}
	for i := 1; i <= 6; i++ {
		universe = append(universe, MessageID{Node: graph.NodeID(1 + i%2), Seq: uint64(i)})
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s IDSet
		ref := refSeen{}
		// Programs of odd seeds favour adds, so they spill early; the others
		// hover around the inline size.
		addBias := 3 + int(seed%2)*3
		for step := 0; step < 60; step++ {
			id := universe[rng.Intn(len(universe))]
			ctx := fmt.Sprintf("seed %d step %d id %v", seed, step, id)
			if rng.Intn(addBias+3) < addBias {
				if got, want := s.Add(id), !ref[id]; got != want {
					t.Fatalf("%s: Add = %v, want %v", ctx, got, want)
				}
				ref[id] = true
			} else {
				if got, want := s.Delete(id), ref[id]; got != want {
					t.Fatalf("%s: Delete = %v, want %v", ctx, got, want)
				}
				delete(ref, id)
			}
			sameSet(t, ctx, &s, ref, universe)
		}
	}
}

// TestIDSetBoundary walks the cases by hand: delete from each inline slot and
// re-add, the fourth ID's spill, emptying a spilled set, and the zero ID as
// an ordinary member.
func TestIDSetBoundary(t *testing.T) {
	id := func(n uint64) MessageID { return MessageID{Node: 7, Seq: n} }
	universe := []MessageID{{}, id(1), id(2), id(3), id(4), id(5)}
	for slot := uint64(1); slot <= 3; slot++ {
		var s IDSet
		ref := refSeen{}
		for n := uint64(1); n <= 3; n++ {
			s.Add(id(n))
			ref[id(n)] = true
		}
		if !s.Delete(id(slot)) || s.Delete(id(slot)) {
			t.Fatalf("slot %d: Delete did not report present then absent", slot)
		}
		delete(ref, id(slot))
		sameSet(t, fmt.Sprintf("slot %d deleted", slot), &s, ref, universe)
		if !s.Add(id(slot)) || s.Add(id(slot)) {
			t.Fatalf("slot %d: re-Add did not report new then held", slot)
		}
		ref[id(slot)] = true
		sameSet(t, fmt.Sprintf("slot %d re-added", slot), &s, ref, universe)
		if s.spill != nil {
			t.Fatalf("slot %d: three IDs made a map", slot)
		}
		s.Add(id(4)) // the spill
		ref[id(4)] = true
		sameSet(t, fmt.Sprintf("slot %d spilled", slot), &s, ref, universe)
		if s.spill == nil || s.n != 0 {
			t.Fatalf("slot %d: fourth ID left n=%d spill=%v", slot, s.n, s.spill)
		}
		for n := uint64(1); n <= 4; n++ {
			s.Delete(id(n))
			delete(ref, id(n))
		}
		sameSet(t, fmt.Sprintf("slot %d emptied", slot), &s, ref, universe)
		s.Add(id(5))
		ref[id(5)] = true
		sameSet(t, fmt.Sprintf("slot %d after emptying", slot), &s, ref, universe)
	}

	var s IDSet
	if s.Has(MessageID{}) || s.Delete(MessageID{}) || s.Len() != 0 {
		t.Fatal("empty set holds the zero ID")
	}
	if !s.Add(MessageID{}) || s.Add(MessageID{}) || !s.Has(MessageID{}) || s.Len() != 1 {
		t.Fatal("zero ID is not an ordinary member")
	}
	if s.Has(id(1)) {
		t.Fatal("set of the zero ID holds another")
	}
	if !s.Delete(MessageID{}) || s.Has(MessageID{}) || s.Len() != 0 {
		t.Fatal("zero ID not deleted")
	}
}

// refMailbox is the parent's Mailbox where it touched the seen-set: Deposit,
// Forget, Suppress, Remove (indexing every list), SeenIDs and MaxSeenSeq over
// a map, with the same journal.
type refMailbox struct {
	msgs    []Stored
	seen    refSeen
	journal []Op
}

func (b *refMailbox) Deposit(m Message, at sim.Time) bool {
	if b.seen[m.ID] {
		return false
	}
	b.seen[m.ID] = true
	b.msgs = append(b.msgs, Stored{Message: m, ArrivedAt: at})
	b.journal = append(b.journal, Op{Kind: OpDeposit, Msg: m, At: at})
	return true
}

func (b *refMailbox) Drain() []Stored {
	out := b.msgs
	if len(out) > 0 {
		b.journal = append(b.journal, Op{Kind: OpDrain})
	}
	b.msgs = nil
	return out
}

func (b *refMailbox) Forget(id MessageID) bool {
	was := b.seen[id]
	delete(b.seen, id)
	return was
}

func (b *refMailbox) Suppress(id MessageID) bool {
	if b.seen[id] {
		return false
	}
	b.seen[id] = true
	b.journal = append(b.journal, Op{Kind: OpSuppress, IDs: []MessageID{id}})
	return true
}

func (b *refMailbox) Remove(ids ...MessageID) int {
	drop := refSeen{}
	for _, id := range ids {
		drop[id] = true
	}
	var removed []MessageID
	kept := b.msgs[:0]
	for _, m := range b.msgs {
		if drop[m.ID] {
			removed = append(removed, m.ID)
			continue
		}
		kept = append(kept, m)
	}
	b.msgs = kept
	if len(removed) > 0 {
		b.journal = append(b.journal, Op{Kind: OpEvict, IDs: removed})
	}
	return len(removed)
}

func (b *refMailbox) SeenIDs() []MessageID {
	out := make([]MessageID, 0, len(b.seen))
	for id := range b.seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

func (b *refMailbox) MaxSeenSeq(node graph.NodeID) uint64 {
	var maxSeq uint64
	for id := range b.seen {
		if id.Node == node && id.Seq > maxSeq {
			maxSeq = id.Seq
		}
	}
	return maxSeq
}

// TestMailboxMatchesReference runs seeded schedules — deliveries out of
// order, retries of IDs already held, drains, evictions by short and by long
// ID lists, Forget (PR 9's un-swallow: a forgotten ID must deposit again) and
// Suppress — through a Mailbox and the map-backed reference, and compares
// every return value, the stored messages, the journal, SeenIDs and
// MaxSeenSeq after every step.
func TestMailboxMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newMailbox(owner)
		b.EnableJournal()
		ref := &refMailbox{seen: refSeen{}}
		// A window of IDs from two origins, delivered in shuffled order with
		// repeats; small windows keep the set inline, large ones spill it.
		window := 2 + rng.Intn(3+int(seed%3)*8)
		pick := func() MessageID {
			return MessageID{Node: graph.NodeID(101 + rng.Intn(2)), Seq: uint64(rng.Intn(window))}
		}
		for step := 0; step < 120; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			var got, want any
			switch op := rng.Intn(12); {
			case op < 5:
				m := msg(0, "body")
				m.ID = pick()
				got, want = b.Deposit(m, sim.Time(step)), ref.Deposit(m, sim.Time(step))
			case op < 6:
				got, want = b.Drain(), ref.Drain()
			case op < 8:
				id := pick()
				got, want = b.Forget(id), ref.Forget(id)
			case op < 10:
				id := pick()
				got, want = b.Suppress(id), ref.Suppress(id)
			default:
				ids := make([]MessageID, 1+rng.Intn(2)*rng.Intn(2*removeScanMax))
				for i := range ids {
					ids[i] = pick()
				}
				got, want = b.Remove(ids...), ref.Remove(ids...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: returned %v, reference %v", ctx, got, want)
			}
			if got, want := b.Peek(), ref.msgs; !slices.EqualFunc(got, want, func(a, b Stored) bool { return reflect.DeepEqual(a, b) }) {
				t.Fatalf("%s: stored %v, reference %v", ctx, got, want)
			}
			if got, want := b.SeenIDs(), ref.SeenIDs(); !slices.Equal(got, want) {
				t.Fatalf("%s: SeenIDs %v, reference %v", ctx, got, want)
			}
			for node := graph.NodeID(100); node <= 103; node++ {
				if got, want := b.MaxSeenSeq(node), ref.MaxSeenSeq(node); got != want {
					t.Fatalf("%s: MaxSeenSeq(%d) = %d, reference %d", ctx, node, got, want)
				}
			}
			if got, want := b.TakeOps(), ref.journal; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: journal %+v, reference %+v", ctx, got, want)
			}
			ref.journal = nil
		}
	}
}

// TestMailboxFirstTouchAllocs: making an idle user's mailbox in memory its
// store already holds allocates nothing, and the first message it receives
// adds only the message slot — the duplicate memory lives in the mailbox
// until a fourth ID arrives.
func TestMailboxFirstTouchAllocs(t *testing.T) {
	b := new(Mailbox)
	if n := testing.AllocsPerRun(200, func() { b.Init(owner) }); n != 0 {
		t.Errorf("Init: %v allocs, want 0 (2 with a map for the seen-set)", n)
	}
	m := msg(1, "first")
	if n := testing.AllocsPerRun(200, func() {
		b.Init(owner)
		b.Deposit(m, 0)
	}); n > 1 {
		t.Errorf("Init + first Deposit: %v allocs, want ≤ 1 (the one-slot []Stored)", n)
	}
	m2, m3 := msg(2, "second"), msg(3, "third")
	b = newMailbox(owner)
	b.Deposit(m, 0)
	b.Drain()
	if n := testing.AllocsPerRun(1, func() {
		b.Deposit(m2, 0)
		b.Drain()
		b.Deposit(m3, 0)
	}); n > 2 {
		t.Errorf("second and third Deposit: %v allocs, want ≤ 2 (one []Stored each, the IDs inline)", n)
	}
	// A batch its last holder released is the next deposit's slot.
	next := msg(3, "next")
	if n := testing.AllocsPerRun(200, func() {
		Release(b.Drain())
		next.ID.Seq++
		b.Deposit(next, 0)
	}); n != 0 {
		t.Errorf("Deposit after a released Drain: %v allocs, want 0 (the slot comes back)", n)
	}
}

// runsOf returns a spilled set's runs as {node, lo, hi} triples.
func runsOf(t *testing.T, s *IDSet) [][3]uint64 {
	t.Helper()
	if s.spill == nil {
		t.Fatal("set has not spilled")
	}
	out := make([][3]uint64, 0, len(s.spill.runs))
	for _, r := range s.spill.runs {
		out = append(out, [3]uint64{uint64(r.node), r.lo, r.hi})
	}
	return out
}

// TestIDSetRuns walks the run layout by hand — a run grows at either end, two
// runs join when the ID between them arrives, Delete trims an end, splits a
// run or removes it, the ends of the sequence space are ordinary members, two
// origins keep their runs apart — checking the runs themselves and, after
// every step, the set against the map.
func TestIDSetRuns(t *testing.T) {
	const last = ^uint64(0)
	id := func(node int, seq uint64) MessageID { return MessageID{Node: graph.NodeID(node), Seq: seq} }
	var universe []MessageID
	for node := 1; node <= 2; node++ {
		for _, seq := range []uint64{0, 1, 2, 3, 9, 10, 11, 12, 13, 14, 15, 20, last - 2, last - 1, last} {
			universe = append(universe, id(node, seq))
		}
	}
	var s IDSet
	ref := refSeen{}
	step := 0
	do := func(add bool, x MessageID, want ...[3]uint64) {
		t.Helper()
		step++
		ctx := fmt.Sprintf("step %d (add=%v %v)", step, add, x)
		if add {
			if got := s.Add(x); got != !ref[x] {
				t.Fatalf("%s: Add = %v", ctx, got)
			}
			ref[x] = true
		} else {
			if got := s.Delete(x); got != ref[x] {
				t.Fatalf("%s: Delete = %v", ctx, got)
			}
			delete(ref, x)
		}
		sameSet(t, ctx, &s, ref, universe)
		if want != nil {
			if got := runsOf(t, &s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: runs %v, want %v", ctx, got, want)
			}
		}
	}
	run := func(node int, lo, hi uint64) [3]uint64 { return [3]uint64{uint64(node), lo, hi} }

	do(true, id(1, 10))
	do(true, id(1, 12))
	do(true, id(1, 14)) // three inline
	do(true, id(1, 20), run(1, 10, 10), run(1, 12, 12), run(1, 14, 14), run(1, 20, 20))
	do(true, id(1, 13), run(1, 10, 10), run(1, 12, 14), run(1, 20, 20))  // joins 12 and 14
	do(true, id(1, 15), run(1, 10, 10), run(1, 12, 15), run(1, 20, 20))  // extends high
	do(true, id(1, 9), run(1, 9, 10), run(1, 12, 15), run(1, 20, 20))    // extends low
	do(true, id(1, 11), run(1, 9, 15), run(1, 20, 20))                   // joins two longer runs
	do(true, id(1, 11), run(1, 9, 15), run(1, 20, 20))                   // held already
	do(false, id(1, 12), run(1, 9, 11), run(1, 13, 15), run(1, 20, 20))  // splits
	do(false, id(1, 9), run(1, 10, 11), run(1, 13, 15), run(1, 20, 20))  // trims low
	do(false, id(1, 15), run(1, 10, 11), run(1, 13, 14), run(1, 20, 20)) // trims high
	do(false, id(1, 20), run(1, 10, 11), run(1, 13, 14))                 // removes a run of one
	do(false, id(1, 12), run(1, 10, 11), run(1, 13, 14))                 // absent, between runs
	do(true, id(2, 11), run(1, 10, 11), run(1, 13, 14), run(2, 11, 11))  // another origin
	do(true, id(2, 12), run(1, 10, 11), run(1, 13, 14), run(2, 11, 12))  // does not touch node 1's 13
	do(true, id(1, 12), run(1, 10, 14), run(2, 11, 12))                  // nor does node 1's 12 touch node 2
	do(true, id(1, 0), run(1, 0, 0), run(1, 10, 14), run(2, 11, 12))     // Seq 0
	do(true, id(1, 1), run(1, 0, 1), run(1, 10, 14), run(2, 11, 12))     //
	do(false, id(1, 0), run(1, 1, 1), run(1, 10, 14), run(2, 11, 12))    // trims at 0 without wrapping
	do(true, id(1, last), run(1, 1, 1), run(1, 10, 14), run(1, last, last), run(2, 11, 12))
	do(true, id(1, last-1), run(1, 1, 1), run(1, 10, 14), run(1, last-1, last), run(2, 11, 12))
	do(true, id(2, 0), run(1, 1, 1), run(1, 10, 14), run(1, last-1, last), run(2, 0, 0), run(2, 11, 12)) // node 1's last and node 2's 0 are not neighbours
	do(false, id(1, last), run(1, 1, 1), run(1, 10, 14), run(1, last-1, last-1), run(2, 0, 0), run(2, 11, 12))
	do(true, id(1, last), run(1, 1, 1), run(1, 10, 14), run(1, last-1, last), run(2, 0, 0), run(2, 11, 12))
	do(true, id(1, last-2), run(1, 1, 1), run(1, 10, 14), run(1, last-2, last), run(2, 0, 0), run(2, 11, 12))
	do(false, id(1, last-1), run(1, 1, 1), run(1, 10, 14), run(1, last-2, last-2), run(1, last, last), run(2, 0, 0), run(2, 11, 12))
	for _, x := range universe { // empty it: a spilled set stays spilled
		do(false, x)
	}
	if got := runsOf(t, &s); len(got) != 0 || s.Len() != 0 {
		t.Fatalf("emptied set keeps runs %v", got)
	}
	do(true, id(2, 3), run(2, 3, 3))
}

// TestIDSetOutOfOrder delivers 10 000 IDs of two origins in a seeded shuffle,
// each twice, checks every Add against the map, and expects the runs to have
// closed up: two dense ranges with a gap in each are four runs whatever the
// arrival order. Then it deletes every third ID in another shuffle.
func TestIDSetOutOfOrder(t *testing.T) {
	var ids []MessageID
	for i := 0; i < 5000; i++ {
		seq := uint64(1000 + i)
		if i >= 2500 {
			seq++ // the gap
		}
		ids = append(ids, MessageID{Node: 1, Seq: seq}, MessageID{Node: 2, Seq: seq})
	}
	rng := rand.New(rand.NewSource(5))
	order := append(append([]MessageID(nil), ids...), ids...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var s IDSet
	ref := refSeen{}
	for _, x := range order {
		if got := s.Add(x); got != !ref[x] {
			t.Fatalf("Add(%v) = %v", x, got)
		}
		ref[x] = true
	}
	universe := append(ids, MessageID{Node: 1, Seq: 999}, MessageID{Node: 1, Seq: 3500}, MessageID{Node: 2, Seq: 6001}, MessageID{Node: 3, Seq: 1000})
	sameSet(t, "after the shuffle", &s, ref, universe)
	want := [][3]uint64{{1, 1000, 3499}, {1, 3501, 6000}, {2, 1000, 3499}, {2, 3501, 6000}}
	if got := runsOf(t, &s); !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for i, x := range ids {
		if i%3 == 0 {
			if !s.Delete(x) || s.Delete(x) {
				t.Fatalf("Delete(%v) did not report held then absent", x)
			}
			delete(ref, x)
		}
	}
	sameSet(t, "after the deletes", &s, ref, universe)
}

// TestIDSetSize: every mailbox and every agent embeds an IDSet, a million of
// each in the large simulations, so the struct may not outgrow the 64 bytes
// it had with a map behind it; and a spill is one allocation (two, as the
// map's was, while the slice header lived apart from its runs), with room for
// idRunsFirst scattered IDs before the next.
func TestIDSetSize(t *testing.T) {
	if got := unsafe.Sizeof(IDSet{}); got > 64 {
		t.Errorf("Sizeof(IDSet{}) = %d, want ≤ 64", got)
	}
	if got := unsafe.Sizeof(idRun{}); got != 24 {
		t.Errorf("Sizeof(idRun{}) = %d, want 24", got)
	}
	if n := testing.AllocsPerRun(200, func() {
		var s IDSet
		for seq := uint64(0); seq < 2*idRunsFirst; seq += 2 { // isolated IDs: one run each
			s.Add(MessageID{Node: 1, Seq: seq})
		}
	}); n > 1 {
		t.Errorf("a set of %d scattered IDs: %v allocs, want ≤ 1", idRunsFirst, n)
	}
	if got := unsafe.Sizeof(idSpill{}); got > 224 {
		t.Errorf("Sizeof(idSpill{}) = %d, want ≤ 224, the two objects it replaced", got)
	}
}

// TestIDSetSpillAllocBudget: the fourth Add, the one that spills, costs
// exactly one allocation, and filling the spill up to idRunsFirst isolated
// IDs costs no other; a set that then grows past idRunsFirst runs, and
// shrinks again, agrees with the map on Has, Len, Each and Delete all the
// way. Under the race detector the count is the same: nothing here goes
// through a sync.Pool.
func TestIDSetSpillAllocBudget(t *testing.T) {
	id := func(seq uint64) MessageID { return MessageID{Node: 3, Seq: 2 * seq} } // no two touch
	var base, s IDSet
	for seq := uint64(0); seq < idSetInline; seq++ {
		base.Add(id(seq))
	}
	if n := testing.AllocsPerRun(100, func() { s = base; s.Add(id(idSetInline)) }); n != 1 {
		t.Errorf("the spilling Add: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s = base
		for seq := uint64(idSetInline); seq < idRunsFirst; seq++ {
			s.Add(id(seq))
		}
	}); n != 1 {
		t.Errorf("spilling and filling %d runs: %v allocs, want 1", idRunsFirst, n)
	}
	ref := refSeen{}
	var universe []MessageID
	for seq := uint64(0); seq < 4*idRunsFirst; seq++ {
		universe = append(universe, id(seq), MessageID{Node: 3, Seq: 2*seq + 1})
		if seq < idRunsFirst {
			ref[id(seq)] = true
		}
	}
	sameSet(t, "full first runs", &s, ref, universe)
	for seq := uint64(idRunsFirst); seq < 3*idRunsFirst; seq++ {
		if !s.Add(id(seq)) {
			t.Fatalf("Add(%v) reported held", id(seq))
		}
		ref[id(seq)] = true
		sameSet(t, fmt.Sprintf("grown to %d", seq+1), &s, ref, universe)
	}
	for seq := uint64(0); seq < 3*idRunsFirst; seq += 2 {
		if !s.Delete(id(seq)) || s.Delete(id(seq)) {
			t.Fatalf("Delete(%v) did not report held then absent", id(seq))
		}
		delete(ref, id(seq))
		sameSet(t, fmt.Sprintf("deleted %d", seq), &s, ref, universe)
	}
}
