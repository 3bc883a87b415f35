package mail

import (
	"slices"

	"github.com/largemail/largemail/internal/names"
)

// idSetInline is how many IDs an IDSet holds before it spills. Most
// mailboxes and agents of a large population see one to three messages in
// their life, so three keeps the duplicate memory of nearly every user
// inside the struct that owns it.
const idSetInline = 3

// idRunsFirst is the capacity of a set's first run slice: what the map this
// layout replaced held before it grew, so a set of a handful of scattered
// IDs allocates no more often than it did then.
const idRunsFirst = 8

// idSpill is a spilled set: its runs, which start in first and move out to a
// slice of their own only past idRunsFirst, so the spill is one allocation.
type idSpill struct {
	runs  []idRun
	first [idRunsFirst]idRun
}

// idRun is the IDs lo..hi, both included, of one origin node.
type idRun struct {
	node   names.NodeID
	lo, hi uint64
}

// IDSet is an exact set of message IDs: the duplicate-suppression memory of
// a mailbox or a user agent. The first idSetInline IDs live in the value
// itself; the fourth moves them all into a slice of runs (an idSpill, made
// then), sorted by (node, lo), no two of them touching, and from there on the
// set is that slice — it never moves back. An origin numbers its messages in
// sequence, so what one recipient has seen is mostly stretches of it: a batch
// of sixteen to one user is one run of 24 bytes, as is an ID with no neighbour.
// The zero value is an empty set. An IDSet must not be copied once it has
// been added to.
type IDSet struct {
	inline [idSetInline]MessageID
	n      uint8 // IDs in inline; 0 once spilled
	// spill is nil until the set outgrows inline. A pointer, not the slice:
	// every mailbox and agent embeds an IDSet, and few ever spill.
	spill *idSpill
}

// find returns the index of the first run that starts after id, so that the
// run before it is the only one that can hold id.
func find(runs []idRun, id MessageID) int {
	i, _ := slices.BinarySearchFunc(runs, id, func(r idRun, id MessageID) int {
		if r.node != id.Node {
			if r.node < id.Node {
				return -1
			}
			return 1
		}
		if r.lo <= id.Seq {
			return -1
		}
		return 1
	})
	return i
}

// holds reports whether the run before index i, if there is one, holds id.
func holds(runs []idRun, i int, id MessageID) bool {
	return i > 0 && runs[i-1].node == id.Node && id.Seq <= runs[i-1].hi
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id MessageID) bool {
	if s.spill != nil {
		return holds(s.spill.runs, find(s.spill.runs, id), id)
	}
	for i := uint8(0); i < s.n; i++ {
		if s.inline[i] == id {
			return true
		}
	}
	return false
}

// Add puts id in the set and reports whether it was new.
func (s *IDSet) Add(id MessageID) bool {
	if s.spill != nil {
		return addRun(&s.spill.runs, id)
	}
	if s.Has(id) {
		return false
	}
	if s.n < idSetInline {
		s.inline[s.n] = id
		s.n++
		return true
	}
	s.spill = new(idSpill)
	s.spill.runs = s.spill.first[:0]
	for _, held := range s.inline {
		addRun(&s.spill.runs, held)
	}
	s.n = 0
	return addRun(&s.spill.runs, id)
}

// addRun is Add on a spilled set: id extends the run it touches, joins two
// runs it lies between, or becomes a run of its own.
func addRun(p *[]idRun, id MessageID) bool {
	runs := *p
	i := find(runs, id)
	if holds(runs, i, id) {
		return false
	}
	// No overflow in either +1: id is not in the run before, so that run's hi
	// is below id.Seq, and a run after id starts above it.
	below := i > 0 && runs[i-1].node == id.Node && runs[i-1].hi+1 == id.Seq
	above := i < len(runs) && runs[i].node == id.Node && runs[i].lo == id.Seq+1
	switch {
	case below && above:
		runs[i-1].hi = runs[i].hi
		*p = slices.Delete(runs, i, i+1)
	case below:
		runs[i-1].hi = id.Seq
	case above:
		runs[i].lo = id.Seq
	default:
		*p = slices.Insert(runs, i, idRun{node: id.Node, lo: id.Seq, hi: id.Seq})
	}
	return true
}

// Delete removes id from the set and reports whether it was there.
func (s *IDSet) Delete(id MessageID) bool {
	if s.spill != nil {
		runs := s.spill.runs
		i := find(runs, id)
		if !holds(runs, i, id) {
			return false
		}
		switch r := &runs[i-1]; {
		case r.lo == r.hi:
			s.spill.runs = slices.Delete(runs, i-1, i)
		case id.Seq == r.lo:
			r.lo++
		case id.Seq == r.hi:
			r.hi--
		default: // the run splits around id
			upper := idRun{node: r.node, lo: id.Seq + 1, hi: r.hi}
			r.hi = id.Seq - 1
			s.spill.runs = slices.Insert(runs, i, upper)
		}
		return true
	}
	for i := uint8(0); i < s.n; i++ {
		if s.inline[i] == id {
			s.n--
			s.inline[i] = s.inline[s.n]
			return true
		}
	}
	return false
}

// Len reports how many IDs the set holds.
func (s *IDSet) Len() int {
	n := int(s.n)
	if s.spill != nil {
		for _, r := range s.spill.runs {
			n += int(r.hi-r.lo) + 1
		}
	}
	return n
}

// Each calls fn once per ID; a spilled set visits them in (node, seq) order.
// fn must not change the set.
func (s *IDSet) Each(fn func(MessageID)) {
	for i := uint8(0); i < s.n; i++ {
		fn(s.inline[i])
	}
	if s.spill == nil {
		return
	}
	for _, r := range s.spill.runs {
		for seq := r.lo; ; seq++ {
			fn(MessageID{Node: r.node, Seq: seq})
			if seq == r.hi { // tested here: hi may be the last uint64
				break
			}
		}
	}
}
