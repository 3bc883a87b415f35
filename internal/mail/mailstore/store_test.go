package mailstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

func user(i int) names.Name {
	return names.MustParse(fmt.Sprintf("R0.h%d.u%d", i%7, i))
}

func msg(seq uint64, body string) mail.Message {
	return mail.Message{ID: mail.MessageID{Node: 1, Seq: seq}, Subject: "s", Body: body}
}

func TestCountersTrackMutations(t *testing.T) {
	s := New(4)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards())
	}
	u1, u2 := user(1), user(2)
	if !s.Deposit(u1, msg(1, "aaaa"), 0) {
		t.Fatal("first deposit not fresh")
	}
	if s.Deposit(u1, msg(1, "aaaa"), 0) {
		t.Fatal("duplicate deposit reported fresh")
	}
	s.Deposit(u1, msg(2, "bb"), 0)
	s.Deposit(u2, msg(3, "c"), 0)
	wantBytes := int64(len("s")*3 + 4 + 2 + 1)
	if got := s.TotalBytes(); got != wantBytes {
		t.Errorf("TotalBytes = %d, want %d", got, wantBytes)
	}
	if got := s.TotalMessages(); got != 3 {
		t.Errorf("TotalMessages = %d, want 3", got)
	}
	if got := s.Len(u1); got != 2 {
		t.Errorf("Len(u1) = %d, want 2", got)
	}

	// Drain empties the counters for that user but keeps the mailbox (and
	// its duplicate-suppression memory).
	out := s.Drain(u1)
	if len(out) != 2 {
		t.Fatalf("Drain = %d messages, want 2", len(out))
	}
	if got := s.TotalMessages(); got != 1 {
		t.Errorf("TotalMessages after drain = %d, want 1", got)
	}
	if got := s.TotalBytes(); got != int64(len("s")+1) {
		t.Errorf("TotalBytes after drain = %d", got)
	}
	if s.Deposit(u1, msg(1, "aaaa"), 0) {
		t.Error("re-deposit of drained message not suppressed")
	}
	if got := s.NumUsers(); got != 2 {
		t.Errorf("NumUsers = %d, want 2 (drained mailbox must persist)", got)
	}
}

func TestCountersTrackCleanup(t *testing.T) {
	s := New(2)
	u := user(9)
	for i := 1; i <= 5; i++ {
		s.Deposit(u, msg(uint64(i), "xy"), 0)
	}
	var evicted int
	s.UpdateExisting(u, func(mb *mail.Mailbox) { evicted = keepNewest(mb, 2) })
	if evicted != 3 {
		t.Fatalf("evicted %d, want 3", evicted)
	}
	if got := s.TotalMessages(); got != 2 {
		t.Errorf("TotalMessages after cleanup = %d, want 2", got)
	}
	if got := s.TotalBytes(); got != int64(2*(len("s")+2)) {
		t.Errorf("TotalBytes after cleanup = %d", got)
	}
}

// keepNewest evicts all but the newest keep messages of mb through Remove, the
// journaled eviction DrainFit uses, and reports how many it evicted.
func keepNewest(mb *mail.Mailbox, keep int) int {
	stored := mb.Peek()
	if len(stored) <= keep {
		return 0
	}
	ids := make([]mail.MessageID, len(stored)-keep)
	for i := range ids {
		ids[i] = stored[i].ID
	}
	return mb.Remove(ids...)
}

func TestUsersSortedDeterministic(t *testing.T) {
	s := New(8)
	for i := 0; i < 50; i++ {
		s.Deposit(user(i), msg(uint64(i+1), "b"), 0)
	}
	us := s.Users()
	if len(us) != 50 {
		t.Fatalf("Users = %d, want 50", len(us))
	}
	for i := 1; i < len(us); i++ {
		if us[i-1].String() >= us[i].String() {
			t.Fatalf("Users not sorted at %d: %v >= %v", i, us[i-1], us[i])
		}
	}
}

// TestHoldingIsUsersWithMail: after deposits, a Drain, a partial DrainFit, a
// Remove of everything, a durable reopen and drains down to one mailbox with
// mail, Holding is Users filtered to the mailboxes with mail, in the same
// order, in one allocation of exactly its size; it is nil on an empty store.
func TestHoldingIsUsersWithMail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Holding(); h != nil {
		t.Fatalf("Holding on an empty store = %v, want nil", h)
	}
	check := func(step string) {
		t.Helper()
		var want []names.Name
		for _, u := range s.Users() {
			if s.Len(u) > 0 {
				want = append(want, u)
			}
		}
		got := s.Holding()
		if !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("%s: Holding = %v (cap %d), want %v", step, got, cap(got), want)
		}
		if n := testing.AllocsPerRun(10, func() { s.Holding() }); n > 1 {
			t.Fatalf("%s: Holding allocates %v times, want <= 1", step, n)
		}
	}
	for i := 0; i < 40; i++ {
		for k := 0; k <= i%3; k++ {
			s.Deposit(user(i), msg(uint64(100*i+k+1), "b"), 0)
		}
	}
	check("deposits")
	for i := 0; i < 40; i += 4 {
		s.Drain(user(i))
	}
	check("drain")
	for i := 2; i < 40; i += 3 { // i%3 == 2: three messages, one taken
		s.DrainFit(user(i), func([]mail.Stored) int { return 1 })
	}
	check("partial DrainFit")
	for i := 1; i < 40; i += 4 {
		s.UpdateExisting(user(i), func(mb *mail.Mailbox) { keepNewest(mb, 0) })
	}
	check("remove everything")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, 4); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("reopen")
	held := s.Holding()
	for _, u := range held[1:] {
		s.Drain(u)
	}
	check("one left")
	s.Drain(held[0])
	if h := s.Holding(); h != nil || len(s.Users()) != 40 {
		t.Fatalf("all drained: Holding = %v, Users = %d, want nil and 40", h, len(s.Users()))
	}
}

func TestViewAndUpdateExisting(t *testing.T) {
	s := New(0) // DefaultShards
	u := user(3)
	if s.UpdateExisting(u, func(mb *mail.Mailbox) { t.Error("fn called for absent user") }) {
		t.Error("UpdateExisting reported true for absent user")
	}
	if s.View(u, func(mb *mail.Mailbox) { t.Error("fn called for absent user") }) {
		t.Error("View reported true for absent user")
	}
	if got := s.Peek(u); got != nil {
		t.Errorf("Peek(absent) = %v", got)
	}
	s.Deposit(u, msg(1, "b"), 7)
	seen := false
	s.View(u, func(mb *mail.Mailbox) { seen = mb.Len() == 1 && mb.Peek()[0].ArrivedAt == 7 })
	if !seen {
		t.Error("View did not observe the deposit")
	}
}

func TestConcurrentDeposits(t *testing.T) {
	s := New(8)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := user((w*perWorker + i) % 40)
				s.Deposit(u, msg(uint64(w*perWorker+i+1), "bb"), 0)
				s.Len(u)
				s.TotalBytes()
			}
		}(w)
	}
	wg.Wait()
	if got := s.TotalMessages(); got != workers*perWorker {
		t.Fatalf("TotalMessages = %d, want %d", got, workers*perWorker)
	}
	if got := s.TotalBytes(); got != int64(workers*perWorker*(len("s")+2)) {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// BenchmarkTotalBytes pins the StoredBytes fix: the sum must be O(shards),
// independent of the number of mailboxes. Compare ns/op across the sizes —
// they stay flat where the old flat-map scan grew linearly.
func BenchmarkTotalBytes(b *testing.B) {
	for _, boxes := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("mailboxes=%d", boxes), func(b *testing.B) {
			s := New(DefaultShards)
			for i := 0; i < boxes; i++ {
				s.Deposit(names.MustParse(fmt.Sprintf("R0.h%d.u%d", i%97, i)),
					msg(uint64(i+1), "payload"), 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.TotalBytes() == 0 {
					b.Fatal("empty store")
				}
			}
		})
	}
}
