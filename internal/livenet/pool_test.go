package livenet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// TestHotPathAllocs holds the submit and retrieval paths to their budgets on
// a memory-only cluster: the lifecycle stamps, the directory lookup and the
// actor hand-off must cost nothing, so what remains is the message itself.
func TestHotPathAllocs(t *testing.T) {
	c := newCluster(t)
	to := []names.Name{alice}
	if _, err := c.Submit(bob, to, "warm", "up"); err != nil { // registers histograms, creates the mailbox
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := c.Submit(bob, to, "subject", "body"); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("Cluster.Submit, one recipient: %v allocs, want ≤ 6", n)
	}

	var b *Agent
	var err error
	if n := testing.AllocsPerRun(200, func() {
		if b, err = c.NewAgent(bob); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("NewAgent: %v allocs, want 1 (its maps wait for a first write)", n)
	}
	var own struct{ a Agent } // an owner's record with the agent in it, as the wire server's
	if n := testing.AllocsPerRun(200, func() {
		if err := c.InitAgent(&own.a, bob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || own.a.User() != bob {
		t.Errorf("InitAgent: %v allocs, want 0; agent for %v", n, own.a.User())
	}
	b.GetMail() // from here on the walk stops at the first server
	if n := testing.AllocsPerRun(2000, func() {
		if got := b.GetMail(); len(got) != 0 {
			t.Fatalf("empty mailbox returned %d messages", len(got))
		}
	}); n > 2 {
		t.Errorf("Agent.GetMail on an empty mailbox: %v allocs, want ≤ 2", n)
	}
}

// TestPooledRequestsUnderKillRestart kills and restarts a server while eight
// goroutines drive Deposit, CheckMail and closure calls through the request
// pool. A request abandoned in flight must never re-enter the pool: if one
// did, the next caller to draw it would share it with the dying loop (a data
// race under -race) and could take that loop's completion for its own — a
// closure call returning nil before its closure ran, a CheckMail handing out
// another user's mail, an acknowledged deposit that never reached the store.
func TestPooledRequestsUnderKillRestart(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	s, err := c.AddServer("s1")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	user := func(kind string, w int) names.Name {
		return names.Name{Region: "R0", Host: kind, User: string(rune('a' + w))}
	}

	var (
		served atomic.Int64 // calls that completed, the chaos loop's pacing signal
		stop   atomic.Bool
		wg     sync.WaitGroup
		acked  [workers][]mail.MessageID // deposits to the write-only mailbox that returned nil
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink, box := user("sink", w), user("box", w)
			seen := make(map[mail.MessageID]bool)
			for i := uint64(1); !stop.Load(); i++ {
				id := mail.MessageID{Node: 1, Seq: uint64(w)<<32 | i}
				if s.Deposit(mail.Message{ID: id, To: []names.Name{sink}, Body: "b"}, sink) == nil {
					acked[w] = append(acked[w], id)
					served.Add(1)
				}
				id.Node = 2
				_ = s.Deposit(mail.Message{ID: id, To: []names.Name{box}, Body: "b"}, box)

				ran := false
				if s.callFn(func(*serverState) { ran = true }) == nil && !ran {
					t.Errorf("worker %d: closure call completed without running", w)
				}
				got, err := s.CheckMail(box)
				if err != nil {
					continue
				}
				served.Add(1)
				for _, m := range got {
					if len(m.To) != 1 || m.To[0] != box {
						t.Errorf("worker %d: CheckMail(%v) returned mail for %v", w, box, m.To)
					}
					if seen[m.ID] {
						t.Errorf("worker %d: %v drained twice", w, m.ID)
					}
					seen[m.ID] = true
				}
				mail.Release(got) // the slot goes to whichever worker deposits next
			}
		}(w)
	}

	for cycle := 0; cycle < 20; cycle++ {
		for target := served.Load() + 200; served.Load() < target; {
			runtime.Gosched()
		}
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		if err := s.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	for w := 0; w < workers; w++ {
		got, err := s.CheckMail(user("sink", w))
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[mail.MessageID]bool, len(got))
		for _, m := range got {
			have[m.ID] = true
		}
		for _, id := range acked[w] {
			if !have[id] {
				t.Errorf("worker %d: deposit %v was acknowledged but is not in the store", w, id)
			}
		}
	}
}
