package mailstore

import (
	"slices"
	"strings"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
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

// msgTerms is one entry of a shard's MessageID → terms table: the terms of
// a message some mailbox of the shard buffers, tokenised once for all of its
// copies. subject and body are what was tokenised, so a deposit that reuses
// the ID with other content is told apart; refs counts the copies indexed
// through the entry, and the entry goes with the last of them.
type msgTerms struct {
	subject, body string
	terms         []string
	refs          int32
}

// EnableTermIndex turns on the per-shard term index, rebuilding it from the
// messages already buffered. The index maps each term to the users whose
// buffered mail contains it, and is maintained by Deposit and Drain under
// the same shard lock as the mailbox mutation — content retrieval (the §3.3
// attribute queries that address message content rather than profiles) then
// reads the durable store, not a side structure that can drift.
//
// Mutations made through raw UpdateExisting closures bypass the index;
// stores that enable it must route message flow through Deposit/Drain
// (every server of both transports does).
func (s *Store) EnableTermIndex() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.terms = make(map[string]map[*mail.Mailbox]int32)
		sh.msgTerms = make(map[mail.MessageID]*msgTerms)
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

// termsFor returns the terms of m while taking (ref +1, at deposit) or
// releasing (ref -1, at drain) one reference on its table entry, so a message
// fanned out to many mailboxes of the shard is tokenised once, not once per
// copy at deposit and again at drain. What it returns is always exactly
// Terms(m.Subject, m.Body): a message without an ID, and one whose content
// differs from the entry recorded under its ID, tokenise directly and leave
// the table alone. Caller holds the shard lock.
func (sh *shard) termsFor(m mail.Message, ref int32) []string {
	if m.ID.IsZero() {
		return Terms(m.Subject, m.Body)
	}
	e := sh.msgTerms[m.ID]
	switch {
	case e == nil && ref > 0:
		e = &msgTerms{subject: m.Subject, body: m.Body, terms: Terms(m.Subject, m.Body)}
		sh.msgTerms[m.ID] = e
	case e == nil, // indexed directly, or its entry is already freed
		e.subject != m.Subject || e.body != m.Body:
		return Terms(m.Subject, m.Body)
	}
	if e.refs += ref; e.refs == 0 {
		delete(sh.msgTerms, m.ID)
	}
	return e.terms
}

// indexAdd references every term of m for mailbox mb. Caller holds the shard
// lock.
func (sh *shard) indexAdd(mb *mail.Mailbox, m mail.Message) {
	for _, t := range sh.termsFor(m, +1) {
		boxes := sh.terms[t]
		if boxes == nil {
			boxes = make(map[*mail.Mailbox]int32)
			sh.terms[t] = boxes
			// First reference in this shard: the term joins the sketch.
			sh.sk.Add(t)
			sh.skGen++
		}
		boxes[mb]++
	}
}

// indexRemove drops one reference per term of m for mailbox mb. Caller holds
// the shard lock.
func (sh *shard) indexRemove(mb *mail.Mailbox, m mail.Message) {
	for _, t := range sh.termsFor(m, -1) {
		boxes := sh.terms[t]
		if boxes == nil {
			continue
		}
		if boxes[mb]--; boxes[mb] <= 0 {
			delete(boxes, mb)
			if len(boxes) == 0 {
				delete(sh.terms, t)
				// Last reference gone: counting filters subtract exactly.
				sh.sk.Remove(t)
				sh.skGen++
			}
		}
	}
}

// SearchTerm returns the users with at least one buffered message containing
// the term (case-insensitive), sorted by name. It returns nil when the index
// is disabled.
func (s *Store) SearchTerm(term string) []names.Name {
	return s.SearchTerms([]string{term})
}

// SearchTerms returns the users whose buffered mail contains every one of
// the terms (conjunction), sorted by name — the evaluation form of a
// planned content query's probe terms. Nil for an empty term list or a
// disabled index.
//
// Each shard intersects its postings under its read lock, walking the
// shortest and probing the rest, so the cost follows the rarest term; the
// names are sorted once, at the end.
func (s *Store) SearchTerms(terms []string) []names.Name {
	if len(terms) == 0 {
		return nil
	}
	norm := make([]string, len(terms))
	for i, t := range terms {
		norm[i] = strings.ToLower(strings.TrimSpace(t))
	}
	posts := make([]map[*mail.Mailbox]int32, len(terms))
	var out []names.Name
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = sh.appendHolders(out, norm, posts)
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// appendHolders appends the owners of the shard's mailboxes that hold every
// term; posts is scratch, one slot per term. Caller holds the shard lock.
func (sh *shard) appendHolders(out []names.Name, terms []string, posts []map[*mail.Mailbox]int32) []names.Name {
	rarest := 0
	for i, t := range terms {
		if posts[i] = sh.terms[t]; len(posts[i]) == 0 {
			return out
		}
		if len(posts[i]) < len(posts[rarest]) {
			rarest = i
		}
	}
next:
	for mb := range posts[rarest] {
		for i, p := range posts {
			if i == rarest {
				continue
			}
			if _, held := p[mb]; !held {
				continue next
			}
		}
		out = append(out, mb.Owner())
	}
	return out
}

// depositIndexed is the native Deposit body: mailbox mutation, counter
// reconciliation, WAL append and index maintenance under one shard lock.
func (s *Store) depositIndexed(user names.Name, m mail.Message, at sim.Time) bool {
	i := s.shardIndex(user)
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
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
	fresh := mb.Deposit(m, at)
	sh.msgs += int64(mb.Len() - l0)
	sh.bytes += int64(mb.Bytes() - b0)
	if s.w != nil {
		s.logOps(i, user, mb)
	}
	if fresh && sh.terms != nil {
		sh.indexAdd(mb, m)
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
	sh.msgs += int64(mb.Len() - l0)
	sh.bytes += int64(mb.Bytes() - b0)
	if s.w != nil {
		s.logOps(i, user, mb)
	}
	if sh.terms != nil {
		for _, st := range out {
			sh.indexRemove(mb, st.Message)
		}
	}
	return out
}
