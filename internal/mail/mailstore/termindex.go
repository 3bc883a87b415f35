package mailstore

import (
	"slices"
	"strings"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sketch"
)

// Term-index limits: tokens shorter than minTermLen or longer than
// maxTermLen are not indexed, and one message contributes at most
// maxTermsPerMsg distinct terms, so a pathological body cannot blow up the
// index.
const (
	minTermLen     = 2
	maxTermLen     = 32
	maxTermsPerMsg = 64
)

// Terms tokenizes a message's subject and body into its indexable terms:
// lower-cased runs of letters and digits, length-bounded, de-duplicated,
// capped at maxTermsPerMsg, in first-appearance order.
func Terms(subject, body string) []string {
	var out []string
	seen := make(map[string]bool)
	emit := func(tok string) {
		if len(tok) < minTermLen || len(tok) > maxTermLen || seen[tok] {
			return
		}
		seen[tok] = true
		out = append(out, tok)
	}
	split := func(s string) {
		start := -1
		for i, r := range s {
			alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
			if alnum {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				emit(strings.ToLower(s[start:i]))
				start = -1
			}
			if len(out) >= maxTermsPerMsg {
				return
			}
		}
		if start >= 0 && len(out) < maxTermsPerMsg {
			emit(strings.ToLower(s[start:]))
		}
	}
	split(subject)
	if len(out) < maxTermsPerMsg {
		split(body)
	}
	return out
}

// msgKey identifies an entry of a shard's message table by what was
// tokenised: two deposits share an entry exactly when they share an ID and
// content, so an ID reused with other content, or a message without one,
// simply has an entry of its own.
type msgKey struct {
	id            mail.MessageID
	subject, body string
}

// msgTerms is one entry of a shard's message table: a message some mailbox of
// the shard buffers, tokenised once for all of its copies, and the mailboxes
// holding a copy. A mailbox holds an entry at most once — its duplicate
// memory refuses a second copy of an ID — so holders form a set. Most
// messages have one holder (the one-recipient deposit), so the first is kept
// inline and the map is made only for a second; the entry goes with its last
// holder.
type msgTerms struct {
	terms []string
	first *mail.Mailbox // nil when only more holds mailboxes
	more  map[*mail.Mailbox]struct{}
}

// EnableTermIndex turns on the per-shard term index, rebuilding it from the
// messages already buffered. The index maps each term to the buffered
// messages containing it and each message to the mailboxes holding it, and is
// maintained by Deposit and Drain under the same shard lock as the mailbox
// mutation — content retrieval (the §3.3 attribute queries that address
// message content rather than profiles) then reads the durable store, not a
// side structure that can drift.
//
// Mutations made through raw UpdateExisting closures bypass the index;
// stores that enable it must route message flow through Deposit/Drain
// (every server of both transports does).
func (s *Store) EnableTermIndex() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.terms = make(map[string]map[*msgTerms]struct{})
		sh.msgTerms = make(map[msgKey]*msgTerms)
		sh.sk = sketch.NewCounting()
		sh.skGen++
		for _, mb := range sh.boxes {
			for _, st := range mb.Peek() {
				sh.indexAdd(mb, st.Message)
			}
		}
		sh.mu.Unlock()
	}
}

// TermIndexed reports whether the term index is on.
func (s *Store) TermIndexed() bool {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.terms != nil
}

// indexAdd records that mailbox mb holds a copy of m. Only the copy that
// creates the entry tokenises m and posts it under its terms; every further
// copy is one holder insert. Caller holds the shard lock.
func (sh *shard) indexAdd(mb *mail.Mailbox, m mail.Message) {
	k := msgKey{m.ID, m.Subject, m.Body}
	e := sh.msgTerms[k]
	if e == nil {
		e = &msgTerms{terms: Terms(m.Subject, m.Body)}
		sh.msgTerms[k] = e
		for _, t := range e.terms {
			entries := sh.terms[t]
			if entries == nil {
				entries = make(map[*msgTerms]struct{})
				sh.terms[t] = entries
				// First live entry in this shard: the term joins the sketch.
				sh.sk.Add(t)
				sh.skGen++
			}
			entries[e] = struct{}{}
		}
	}
	switch {
	case e.first == nil:
		e.first = mb
	case e.more == nil:
		e.more = map[*mail.Mailbox]struct{}{mb: {}}
	default:
		e.more[mb] = struct{}{}
	}
}

// indexRemove records that mailbox mb no longer holds m; the entry's last
// holder takes it off its terms' postings. Caller holds the shard lock.
func (sh *shard) indexRemove(mb *mail.Mailbox, m mail.Message) {
	k := msgKey{m.ID, m.Subject, m.Body}
	e := sh.msgTerms[k]
	if e == nil {
		return
	}
	if e.first == mb {
		e.first = nil
	} else {
		delete(e.more, mb)
	}
	if e.first != nil || len(e.more) > 0 {
		return
	}
	delete(sh.msgTerms, k)
	for _, t := range e.terms {
		entries := sh.terms[t]
		delete(entries, e)
		if len(entries) == 0 {
			delete(sh.terms, t)
			// Last live entry gone: counting filters subtract exactly.
			sh.sk.Remove(t)
			sh.skGen++
		}
	}
}

// SearchTerms returns the users whose buffered mail contains every one of
// the terms (conjunction, case-insensitive), sorted by name — the evaluation form of a
// planned content query's probe terms. Nil for an empty term list or a
// disabled index.
//
// Each shard intersects its postings under its read lock, walking the
// holders of the rarest term's messages and probing the rest, so the cost
// follows the rarest term (a probe the holder's own message does not answer
// walks the smaller of its mailbox and that term's postings); the names are
// sorted once, at the end, and a mailbox holding two messages with the
// rarest term is reported once.
func (s *Store) SearchTerms(terms []string) []names.Name {
	if len(terms) == 0 {
		return nil
	}
	norm := make([]string, len(terms))
	for i, t := range terms {
		norm[i] = strings.ToLower(strings.TrimSpace(t))
	}
	posts := make([]map[*msgTerms]struct{}, len(terms))
	var out []names.Name
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = sh.appendHolders(out, norm, posts)
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, names.Compare)
	return slices.Compact(out)
}

// appendHolders appends the owners of the shard's mailboxes that hold every
// term, once per message of the rarest term they hold; posts is scratch, one
// slot per term. Caller holds the shard lock.
func (sh *shard) appendHolders(out []names.Name, terms []string, posts []map[*msgTerms]struct{}) []names.Name {
	rarest := 0
	for i, t := range terms {
		if posts[i] = sh.terms[t]; len(posts[i]) == 0 {
			return out
		}
		if len(posts[i]) < len(posts[rarest]) {
			rarest = i
		}
	}
	// holdsAll reports whether mb, a holder of e, holds some message with
	// each other term: e itself when it is posted there, another entry if not,
	// found by walking the shorter of mb's messages and that term's entries.
	holdsAll := func(e *msgTerms, mb *mail.Mailbox) bool {
	next:
		for i, p := range posts {
			if _, in := p[e]; in || i == rarest {
				continue
			}
			if n := mb.Len(); n < len(p) {
				for j := range n {
					m := mb.At(j)
					if _, in := p[sh.msgTerms[msgKey{m.ID, m.Subject, m.Body}]]; in {
						continue next
					}
				}
				return false
			}
			for o := range p {
				if _, in := o.more[mb]; in || o.first == mb {
					continue next
				}
			}
			return false
		}
		return true
	}
	for e := range posts[rarest] {
		if e.first != nil && holdsAll(e, e.first) {
			out = append(out, e.first.Owner())
		}
		for mb := range e.more {
			if holdsAll(e, mb) {
				out = append(out, mb.Owner())
			}
		}
	}
	return out
}

// depositLocked is DepositBatch's body for one copy, in shard i, whose write
// lock the caller holds, as is the commit of the WAL records journaled here.
func (s *Store) depositLocked(i int, c *Copy) bool {
	sh := &s.shards[i]
	mb, ok := sh.boxes[c.User]
	if !ok {
		mb = mail.NewMailbox(c.User)
		if s.w != nil {
			mb.EnableJournal()
		}
		sh.boxes[c.User] = mb
	}
	l0, b0 := mb.Len(), mb.Bytes()
	s.lend(i, mb)
	fresh := mb.Deposit(c.Msg, c.At)
	sh.account(mb, l0, b0)
	if s.w != nil {
		s.journal(i, c.User, mb)
	}
	if fresh && sh.terms != nil {
		sh.indexAdd(mb, c.Msg)
	}
	return fresh
}

// drainIndexed is the native Drain and DrainFit body (fit nil: everything);
// drained messages release their index references.
func (s *Store) drainIndexed(user names.Name, fit func([]mail.Stored) int) []mail.Stored {
	i := s.shardIndex(user)
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mb, ok := sh.boxes[user]
	if !ok {
		return nil
	}
	l0, b0 := mb.Len(), mb.Bytes()
	s.lend(i, mb)
	out := mb.DrainFit(fit)
	sh.account(mb, l0, b0)
	if s.w != nil {
		s.journal(i, user, mb)
		s.commit(i)
	}
	if sh.terms != nil {
		for _, st := range out {
			sh.indexRemove(mb, st.Message)
		}
	}
	return out
}
