package mailstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

func termUser(i int) names.Name {
	return names.Name{Region: "R1", Host: fmt.Sprintf("h%d", i%4), User: fmt.Sprintf("u%d", i)}
}

func termMsg(seq uint64, subject, body string) mail.Message {
	return mail.Message{
		ID:      mail.MessageID{Node: graph.NodeID(1), Seq: seq},
		Subject: subject,
		Body:    body,
	}
}

func TestTermsTokenizer(t *testing.T) {
	got := Terms("Budget Q3: budget review!", "numbers 42 and x")
	want := []string{"budget", "q3", "review", "numbers", "42", "and"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
	// Single-char tokens drop, over-long tokens drop, cap holds.
	long := ""
	for i := 0; i < 40; i++ {
		long += "x"
	}
	if got := Terms("a b "+long, ""); len(got) != 0 {
		t.Fatalf("want no terms from short/long tokens, got %v", got)
	}
	big := ""
	for i := 0; i < 2*maxTermsPerMsg; i++ {
		big += fmt.Sprintf("tok%d ", i)
	}
	if got := Terms(big, ""); len(got) != maxTermsPerMsg {
		t.Fatalf("cap: got %d terms, want %d", len(got), maxTermsPerMsg)
	}
}

func TestTermIndexDepositSearchDrain(t *testing.T) {
	s := New(4)
	s.EnableTermIndex()
	u1, u2 := termUser(1), termUser(2)
	s.Deposit(u1, termMsg(1, "quarterly budget", "see attached"), sim.Unit)
	s.Deposit(u2, termMsg(2, "lunch", "budget for the offsite"), sim.Unit)
	s.Deposit(u2, termMsg(3, "reminder", "offsite budget again"), sim.Unit)

	got := s.SearchTerm("Budget")
	want := []names.Name{u1, u2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchTerm(budget) = %v, want %v", got, want)
	}
	if got := s.SearchTerm("lunch"); !reflect.DeepEqual(got, []names.Name{u2}) {
		t.Fatalf("SearchTerm(lunch) = %v", got)
	}
	if got := s.SearchTerm("nosuch"); got != nil {
		t.Fatalf("SearchTerm(nosuch) = %v, want nil", got)
	}

	// Duplicate deposits must not double-count references.
	s.Deposit(u1, termMsg(1, "quarterly budget", "see attached"), 2*sim.Unit)

	// Draining u2 removes both its references; u1 remains.
	if n := len(s.Drain(u2)); n != 2 {
		t.Fatalf("drained %d messages, want 2", n)
	}
	if got := s.SearchTerm("budget"); !reflect.DeepEqual(got, []names.Name{u1}) {
		t.Fatalf("after drain SearchTerm(budget) = %v, want [%v]", got, u1)
	}
	if n := len(s.Drain(u1)); n != 1 {
		t.Fatalf("drained %d messages, want 1", n)
	}
	if got := s.SearchTerm("budget"); got != nil {
		t.Fatalf("after full drain SearchTerm(budget) = %v, want nil", got)
	}
}

func TestEnableTermIndexRebuildsExisting(t *testing.T) {
	s := New(2)
	u := termUser(7)
	s.Deposit(u, termMsg(9, "archive migration", ""), sim.Unit)
	if s.TermIndexed() {
		t.Fatal("index should be off before EnableTermIndex")
	}
	if got := s.SearchTerm("archive"); got != nil {
		t.Fatalf("search with index off = %v, want nil", got)
	}
	s.EnableTermIndex()
	if !s.TermIndexed() {
		t.Fatal("index should be on")
	}
	if got := s.SearchTerm("archive"); !reflect.DeepEqual(got, []names.Name{u}) {
		t.Fatalf("rebuilt SearchTerm(archive) = %v, want [%v]", got, u)
	}
}

// refIndex is the term index as it stood before the MessageID → terms table:
// every copy tokenised on its own at deposit and again at drain, postings
// keyed by name, SearchTerms assembled from one sorted SearchTerm per term.
// It stays here as the reference model the shipped index is held to.
type refIndex struct {
	shardOf func(names.Name) int
	shards  []refShard
}

type refShard struct {
	terms map[string]map[names.Name]int
	sk    *sketch.Counting
	gen   uint64
}

// enableRef mirrors EnableTermIndex on a store whose index was off: one
// generation bump per shard, then every buffered message indexed.
func enableRef(s *Store) *refIndex {
	r := &refIndex{shardOf: s.shardIndex, shards: make([]refShard, s.Shards())}
	for i := range r.shards {
		r.shards[i] = refShard{terms: make(map[string]map[names.Name]int), sk: sketch.NewCounting(), gen: 1}
	}
	for _, u := range s.Users() {
		for _, st := range s.Peek(u) {
			r.add(u, st.Message)
		}
	}
	return r
}

func (r *refIndex) add(user names.Name, m mail.Message) {
	sh := &r.shards[r.shardOf(user)]
	for _, t := range Terms(m.Subject, m.Body) {
		users := sh.terms[t]
		if users == nil {
			users = make(map[names.Name]int)
			sh.terms[t] = users
			sh.sk.Add(t)
			sh.gen++
		}
		users[user]++
	}
}

func (r *refIndex) remove(user names.Name, m mail.Message) {
	sh := &r.shards[r.shardOf(user)]
	for _, t := range Terms(m.Subject, m.Body) {
		users := sh.terms[t]
		if users == nil {
			continue
		}
		if users[user]--; users[user] <= 0 {
			delete(users, user)
			if len(users) == 0 {
				delete(sh.terms, t)
				sh.sk.Remove(t)
				sh.gen++
			}
		}
	}
}

func (r *refIndex) searchTerm(term string) []names.Name {
	term = strings.ToLower(strings.TrimSpace(term))
	if term == "" {
		return nil
	}
	var out []names.Name
	for i := range r.shards {
		for u := range r.shards[i].terms[term] {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (r *refIndex) searchTerms(terms []string) []names.Name {
	if len(terms) == 0 {
		return nil
	}
	hold := make(map[names.Name]int)
	for _, t := range terms {
		for _, u := range r.searchTerm(t) {
			hold[u]++
		}
	}
	var out []names.Name
	for u, n := range hold {
		if n == len(terms) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (r *refIndex) sketch() (*sketch.Filter, uint64) {
	f := sketch.NewFilter()
	var gen uint64
	for i := range r.shards {
		f.Or(r.shards[i].sk.Snapshot())
		gen += r.shards[i].gen
	}
	return f, gen
}

// indexPair drives a store and the reference model through one schedule.
type indexPair struct {
	t   *testing.T
	st  *Store
	ref *refIndex
}

func newIndexPair(t *testing.T, st *Store) *indexPair {
	t.Helper()
	ref := enableRef(st)
	st.EnableTermIndex()
	return &indexPair{t: t, st: st, ref: ref}
}

func (p *indexPair) deposit(u names.Name, m mail.Message) {
	if p.st.Deposit(u, m, sim.Unit) {
		p.ref.add(u, m)
	}
}

func (p *indexPair) drain(u names.Name) {
	for _, st := range p.st.Drain(u) {
		p.ref.remove(u, st.Message)
	}
}

// check compares every observable of the index: SearchTerm per probe,
// SearchTerms over every ordered choice of one, two and three probes
// (repeats included), the sketch bits and both generation reads.
func (p *indexPair) check(probes []string) {
	p.t.Helper()
	search := func(q ...string) {
		if got, want := p.st.SearchTerms(q), p.ref.searchTerms(q); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("SearchTerms(%q) = %v, reference %v", q, got, want)
		}
	}
	for _, a := range probes {
		if got, want := p.st.SearchTerm(a), p.ref.searchTerm(a); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("SearchTerm(%q) = %v, reference %v", a, got, want)
		}
		search(a)
		for _, b := range probes {
			search(a, b)
			for _, c := range probes {
				search(a, b, c)
			}
		}
	}
	f, gen := p.st.Sketch()
	wantF, wantGen := p.ref.sketch()
	if !reflect.DeepEqual(f, wantF) {
		p.t.Fatalf("sketch bits differ: %d set, reference %d", f.Bits(), wantF.Bits())
	}
	if gen != wantGen || p.st.SketchGen() != wantGen {
		p.t.Fatalf("sketch generation %d (SketchGen %d), reference %d", gen, p.st.SketchGen(), wantGen)
	}
}

// requireIndexEmpty: with nothing buffered, no posting and no entry of the
// MessageID → terms table may be left.
func requireIndexEmpty(t *testing.T, s *Store) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		nt, nm := len(sh.terms), len(sh.msgTerms)
		sh.mu.RUnlock()
		if nt != 0 || nm != 0 {
			t.Fatalf("shard %d of a drained store keeps %d postings and %d table entries", i, nt, nm)
		}
	}
}

var refProbes = []string{"budget", "offsite", "Seminar ", "tok63", "tok64", "nosuch"}

// TestTermIndexMatchesReferenceFanout is the §3.3 shape: one bulletin to a
// thousand mailboxes across the shards, tokenised once per shard, drained in
// two waves.
func TestTermIndexMatchesReferenceFanout(t *testing.T) {
	p := newIndexPair(t, New(4))
	rng := rand.New(rand.NewSource(14))
	bulletin := termMsg(1, "bulletin interest=g3", "budget notice for group g3")
	other := termMsg(2, "offsite", "seminar and budget")
	users := make([]names.Name, 1000)
	for i := range users {
		users[i] = termUser(i)
		p.deposit(users[i], bulletin)
		if i%7 == 0 {
			p.deposit(users[i], other)
		}
	}
	for i := range p.st.shards {
		if n := len(p.st.shards[i].msgTerms); n != 2 {
			t.Fatalf("shard %d holds %d table entries for 2 distinct messages", i, n)
		}
	}
	p.check(refProbes)
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	for _, u := range users[:400] {
		p.drain(u)
	}
	p.check(refProbes)
	for _, u := range users {
		p.drain(u)
	}
	p.check(refProbes)
	requireIndexEmpty(t, p.st)
}

// refVariants is a pool of messages built to collide: IDs reused with other
// content, zero IDs, and a body over the per-message term cap.
func refVariants() []mail.Message {
	big := ""
	for i := 0; i < 2*maxTermsPerMsg; i++ {
		big += fmt.Sprintf("tok%d ", i)
	}
	return []mail.Message{
		termMsg(1, "budget", "offsite seminar"),
		termMsg(1, "budget", "offsite only"),           // same ID, other body
		termMsg(1, "Budget review", "offsite seminar"), // same ID, other subject
		termMsg(2, "seminar", "budget budget budget"),
		termMsg(3, "long", big),
		termMsg(3, "long", big+"budget"),
		{Subject: "anonymous", Body: "budget offsite"}, // zero ID
		{Subject: "anonymous", Body: "seminar"},        // zero ID, other body
		termMsg(4, "", ""),
	}
}

// TestTermIndexMatchesReferenceSchedules replays seeded random
// deposit/drain schedules over the colliding pool. Whatever order entries
// are created, bypassed and freed in, every observable must equal the
// reference, and a drained store must keep nothing.
func TestTermIndexMatchesReferenceSchedules(t *testing.T) {
	variants := refVariants()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newIndexPair(t, New(4))
		users := make([]names.Name, 24)
		for i := range users {
			users[i] = termUser(i)
		}
		for step := 0; step < 600; step++ {
			u := users[rng.Intn(len(users))]
			if rng.Intn(4) == 0 {
				p.drain(u)
			} else {
				p.deposit(u, variants[rng.Intn(len(variants))])
			}
			if step%40 == 0 {
				p.check(refProbes)
			}
		}
		p.check(refProbes)
		for _, u := range users {
			p.drain(u)
		}
		p.check(refProbes)
		requireIndexEmpty(t, p.st)
	}
}

// TestTermIndexSameIDOtherBody walks the one order of events in which a
// table entry is freed while a copy indexed through it is still buffered.
func TestTermIndexSameIDOtherBody(t *testing.T) {
	p := newIndexPair(t, New(1))
	x, y := termMsg(7, "s", "budget"), termMsg(7, "s", "offsite")
	u := func(i int) names.Name { return termUser(i) }
	p.deposit(u(1), x) // entry for x
	p.deposit(u(2), y) // differs: indexed directly
	p.drain(u(1))      // entry freed
	p.deposit(u(3), y) // entry for y
	p.check(refProbes)
	p.drain(u(2)) // y released through an entry u(2) never referenced
	p.check(refProbes)
	p.deposit(u(4), x) // x now differs from the entry, or fills a fresh one
	p.check(refProbes)
	for i := 1; i <= 4; i++ {
		p.drain(u(i))
		p.check(refProbes)
	}
	requireIndexEmpty(t, p.st)
}

// TestTermIndexMatchesReferenceOnEnable: enabling the index on a populated
// store fills the table and the postings exactly as deposits would have.
func TestTermIndexMatchesReferenceOnEnable(t *testing.T) {
	st := New(4)
	variants := refVariants()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		st.Deposit(termUser(rng.Intn(40)), variants[rng.Intn(len(variants))], sim.Unit)
	}
	p := newIndexPair(t, st)
	p.check(refProbes)
	for i := 0; i < 40; i++ {
		p.drain(termUser(i))
	}
	p.check(refProbes)
	requireIndexEmpty(t, st)
}

// TestTermIndexMatchesReferenceDurableReopen: a recovered store's mailboxes
// are new objects; the index enabled over them must still agree.
func TestTermIndexMatchesReferenceDurableReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := newIndexPair(t, st)
	variants := refVariants()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		if rng.Intn(5) == 0 {
			p.drain(termUser(rng.Intn(30)))
		} else {
			p.deposit(termUser(rng.Intn(30)), variants[rng.Intn(len(variants))])
		}
	}
	p.check(refProbes)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	p = newIndexPair(t, re)
	p.check(refProbes)
	for i := 0; i < 30; i++ {
		p.drain(termUser(i))
	}
	p.check(refProbes)
	requireIndexEmpty(t, re)
}

// TestTermIndexAllocs budgets the per-copy cost of a fan-out: once a message
// is in the shard's table, depositing one more copy into an existing mailbox
// allocates for the mailbox alone (its message slice, at most its duplicate
// memory), and draining it costs the index nothing.
func TestTermIndexAllocs(t *testing.T) {
	const copies = 200
	bulletin := termMsg(1, "bulletin interest=g3", "budget notice for group g3")
	measure := func(indexed bool) (deposit, drain float64) {
		s := New(1)
		if indexed {
			s.EnableTermIndex()
		}
		// The holder keeps the table entry alive; a first round creates the
		// mailboxes and sizes the posting maps.
		s.Deposit(termUser(copies+1), bulletin, sim.Unit)
		users := make([]names.Name, copies+1)
		for i := range users {
			users[i] = termUser(i)
			s.Deposit(users[i], termMsg(2, "budget", "group notice"), sim.Unit)
			s.Drain(users[i])
		}
		i := 0
		deposit = testing.AllocsPerRun(copies, func() { s.Deposit(users[i], bulletin, sim.Unit); i++ })
		i = 0
		drain = testing.AllocsPerRun(copies, func() { s.Drain(users[i]); i++ })
		return deposit, drain
	}
	deposit, drain := measure(true)
	plainDeposit, plainDrain := measure(false)
	if deposit > 2 {
		t.Errorf("indexed Deposit of a tokenised message: %v allocs, want <= 2", deposit)
	}
	if deposit > plainDeposit {
		t.Errorf("indexed Deposit allocates %v, unindexed %v: the index must add nothing per copy", deposit, plainDeposit)
	}
	if drain != plainDrain {
		t.Errorf("indexed Drain allocates %v, unindexed %v: the index must add nothing", drain, plainDrain)
	}
}

// TestTermIndexConcurrent runs indexed deposits, drains and conjunctive
// searches of shared messages from several goroutines on a 4-shard store
// (under -race in tier1-race); once everything is drained nothing is held.
func TestTermIndexConcurrent(t *testing.T) {
	s := New(4)
	s.EnableTermIndex()
	const workers, usersPer, rounds = 4, 32, 20
	shared := []mail.Message{
		termMsg(1, "budget", "offsite seminar"),
		termMsg(2, "seminar", "budget deadline"),
		termMsg(2, "seminar", "another body under the same id"),
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < usersPer; i++ {
					u := termUser(w*usersPer + i)
					s.Deposit(u, shared[(r+i)%len(shared)], sim.Unit)
					if i%3 == r%3 {
						s.Drain(u)
					}
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				got := s.SearchTerms([]string{"budget", "seminar"})
				for i := 1; i < len(got); i++ {
					if names.Compare(got[i-1], got[i]) >= 0 {
						t.Errorf("SearchTerms result out of order: %v then %v", got[i-1], got[i])
						return
					}
				}
				s.Sketch()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < workers*usersPer; i++ {
		s.Drain(termUser(i))
	}
	if got := s.SearchTerms([]string{"budget"}); got != nil {
		t.Fatalf("drained store still reports holders: %v", got)
	}
	requireIndexEmpty(t, s)
}
