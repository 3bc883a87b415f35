package server

import (
	"fmt"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// resolveCounter is a Resolver that records every name it is asked to
// resolve.
type resolveCounter struct {
	Resolver
	asked map[names.Name]bool
}

func (r *resolveCounter) Resolve(u names.Name) []graph.NodeID {
	r.asked[u] = true
	return r.Resolver.Resolve(u)
}

// TestEvacuateResolvesOnlyHeldMail: a rehash or a server removal looks only at
// the mailboxes that hold mail. S1 keeps 10 000 drained-empty mailboxes beside
// three that hold mail; carol's list loses S1, so her mailbox, and only hers,
// moves to S2. Evacuate resolves those three users and nobody else, and with
// nothing held it costs at most one allocation however many empty mailboxes
// the server keeps.
func TestEvacuateResolvesOnlyHeldMail(t *testing.T) {
	counter := &resolveCounter{asked: make(map[names.Name]bool)}
	w := newWorld(t, func(c *Config) {
		if c.ID == s1 {
			counter.Resolver = c.Dir
			c.Dir = counter
		}
	})
	dave := names.MustParse("R1.h1.dave")
	if err := w.dirR1.SetAuthority(dave, []graph.NodeID{s1}); err != nil {
		t.Fatal(err)
	}
	st := w.servers[s1].Store()
	seq := uint64(0)
	addEmpty := func(n int) {
		for range n {
			seq++
			u := names.MustParse(fmt.Sprintf("R1.h1.e%d", seq))
			st.Deposit(u, mail.Message{ID: mail.MessageID{Node: 9, Seq: seq}, To: []names.Name{u}}, 0)
			st.Drain(u)
		}
	}
	addEmpty(10_000)
	for _, u := range []names.Name{alice, carol, carol, dave} {
		w.submit(t, h1, s1, bob, u)
	}
	if err := w.dirR1.SetAuthority(carol, []graph.NodeID{s2}); err != nil {
		t.Fatal(err)
	}

	clear(counter.asked)
	users, msgs := w.servers[s1].Evacuate()
	w.sched.Run()
	if len(counter.asked) != 3 || !counter.asked[alice] || !counter.asked[carol] || !counter.asked[dave] {
		t.Errorf("Evacuate resolved %d users, want alice, carol and dave", len(counter.asked))
	}
	if users != 1 || msgs != 2 {
		t.Errorf("Evacuate moved %d mailboxes, %d messages; want 1, 2", users, msgs)
	}
	if got, left := w.servers[s2].Store().Len(carol), st.Len(carol); got != 2 || left != 0 {
		t.Errorf("carol: %d messages at S2, %d left at S1; want 2 and 0", got, left)
	}
	if st.Len(alice) != 1 || st.Len(dave) != 1 {
		t.Error("mail of users still listed at S1 left it")
	}

	st.Drain(alice)
	st.Drain(dave)
	allocs := func() float64 {
		return testing.AllocsPerRun(5, func() { w.servers[s1].Evacuate() })
	}
	few := allocs()
	addEmpty(10_000)
	if many := allocs(); few > 1 || many != few {
		t.Errorf("Evacuate with nothing held allocates %v times over 10 003 mailboxes, %v over 20 003; want <= 1 and no growth", few, many)
	}
}
