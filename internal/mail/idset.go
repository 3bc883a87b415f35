package mail

// idSetInline is how many IDs an IDSet holds before it makes a map. Most
// mailboxes and agents of a large population see one to three messages in
// their life, so three keeps the duplicate memory of nearly every user
// inside the struct that owns it.
const idSetInline = 3

// IDSet is an exact set of message IDs: the duplicate-suppression memory of
// a mailbox or a user agent. The first idSetInline IDs live in the value
// itself; the fourth moves them all into a map made then, and from there on
// the set is that map — it never moves back. The zero value is an empty set.
// An IDSet must not be copied once it has been added to.
type IDSet struct {
	inline [idSetInline]MessageID
	n      uint8                  // IDs in inline; 0 once spilled
	spill  map[MessageID]struct{} // nil until the set outgrows inline
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id MessageID) bool {
	if s.spill != nil {
		_, ok := s.spill[id]
		return ok
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
	if s.Has(id) {
		return false
	}
	switch {
	case s.spill != nil:
		s.spill[id] = struct{}{}
	case s.n < idSetInline:
		s.inline[s.n] = id
		s.n++
	default:
		s.spill = make(map[MessageID]struct{}, 2*idSetInline)
		for _, held := range s.inline {
			s.spill[held] = struct{}{}
		}
		s.spill[id] = struct{}{}
		s.n = 0
	}
	return true
}

// Delete removes id from the set and reports whether it was there.
func (s *IDSet) Delete(id MessageID) bool {
	if s.spill != nil {
		_, ok := s.spill[id]
		delete(s.spill, id)
		return ok
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
func (s *IDSet) Len() int { return int(s.n) + len(s.spill) }

// Each calls fn once per ID, in no particular order. fn must not change the
// set.
func (s *IDSet) Each(fn func(MessageID)) {
	for i := uint8(0); i < s.n; i++ {
		fn(s.inline[i])
	}
	for id := range s.spill {
		fn(id)
	}
}
