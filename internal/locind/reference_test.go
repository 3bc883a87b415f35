package locind

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// refAgent is Agent's retrieval as it stood before mail.Inbox replaced its
// adopt-or-append loop, kept verbatim. It retrieves through the Agent it
// wraps — same user, system, host — and keeps its own inbox, duplicate
// memory and counters.
type refAgent struct {
	*Agent
	seen       mail.IDSet
	inbox      []mail.Stored
	polls      int
	retrievals int
	dupes      int
	pollCost   float64
}

func (a *refAgent) GetMail() []mail.Stored {
	return append([]mail.Stored(nil), a.inbox[a.walk(a.current.id, 1):]...)
}

func (a *refAgent) TakeMail() []mail.Stored {
	out := a.inbox[a.walk(a.current.id, 1):]
	a.inbox = nil
	return out
}

func (a *refAgent) walk(from graph.NodeID, costFactor float64) int {
	a.retrievals++
	before := len(a.inbox)
	for _, sid := range a.sys.AuthorityFor(a.user) {
		if !a.sys.net.IsUp(sid) {
			continue
		}
		srv, ok := a.sys.Server(sid)
		if !ok {
			continue
		}
		a.polls++
		if c, err := a.sys.net.Cost(from, sid); err == nil {
			a.pollCost += 2 * c * costFactor
		}
		msgs, err := srv.CheckMail(a.user)
		if err != nil || len(msgs) == 0 {
			continue
		}
		adopt := len(a.inbox) == 0
		for i := range msgs {
			if !a.seen.Add(msgs[i].ID) {
				a.dupes++
				if adopt {
					adopt = false
					a.inbox = append(a.inbox, msgs[:i]...)
				}
				continue
			}
			if !adopt {
				a.inbox = append(a.inbox, msgs[i])
			}
		}
		if adopt {
			a.inbox = msgs[:len(msgs):len(msgs)]
		}
	}
	return before
}

// TestInboxMatchesReference drives two identical regions through the seeded
// schedule of TestTakeMailMatchesGetMail — submissions, slow acks (a retried
// deposit lands on both authority servers), crashes and recoveries — with
// retrievals by GetMail and by TakeMail mixed. One reader absorbs what it
// polls through mail.Inbox, the other through the loop it replaced. Every
// retrieval returns the same messages in the same order and leaves the same
// inbox and the same counters.
func TestInboxMatchesReference(t *testing.T) {
	retrievals, dups := 0, 0
	servers := []graph.NodeID{t1, t2, t3}
	for seed := int64(1); seed <= 20; seed++ {
		shared, old := newRaceWorld(t), newRaceWorld(t)
		worlds := []*raceWorld{shared, old}
		rcpt := names.MustParse("R1.ha.reader")
		reader := mustAgent(t, shared.sys, rcpt)
		ref := &refAgent{Agent: mustAgent(t, old.sys, rcpt)}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				sid := servers[rng.Intn(len(servers))]
				for n := 1 + rng.Intn(3); n > 0; n-- {
					for _, w := range worlds {
						srv, _ := w.sys.Server(sid)
						_, _ = srv.Accept(uBob, []names.Name{rcpt}, "s", "b") // refused alike while sid is down
					}
				}
			case op < 6:
				sid, d := servers[rng.Intn(len(servers))], sim.Time(rng.Intn(4))*sim.Unit
				for _, w := range worlds {
					w.net.SetExtraDelay(sid, d)
				}
			case op < 7:
				sid := servers[rng.Intn(len(servers))]
				for _, w := range worlds {
					if w.net.IsUp(sid) {
						w.net.Crash(sid)
					} else {
						w.net.Recover(sid)
					}
				}
			default:
				d := sim.Time(1+rng.Intn(5)) * sim.Unit
				for _, w := range worlds {
					w.sched.RunFor(d)
				}
				var got, want []mail.Stored
				if rng.Intn(3) == 0 {
					got, want = reader.TakeMail(), ref.TakeMail()
				} else {
					got, want = reader.GetMail(), ref.GetMail()
				}
				retrievals++
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: retrieved %+v, reference %+v", seed, step, got, want)
				}
				if in := reader.Inbox(); len(in) != len(ref.inbox) || (len(in) > 0 && !reflect.DeepEqual(in, ref.inbox)) {
					t.Fatalf("seed %d step %d: inbox %+v, reference %+v", seed, step, in, ref.inbox)
				}
				if reader.Polls() != ref.polls || reader.Retrievals() != ref.retrievals || reader.Duplicates() != ref.dupes || reader.PollCost() != ref.pollCost {
					t.Fatalf("seed %d step %d: counters diverged", seed, step)
				}
			}
		}
		dups += ref.dupes
	}
	if retrievals < 500 || dups < 20 {
		t.Fatalf("the schedules made %d retrievals and suppressed %d duplicates; too few to prove anything", retrievals, dups)
	}
}

// TestAgentSizeNotGrown pins what an idle user costs.
func TestAgentSizeNotGrown(t *testing.T) {
	if got, was := unsafe.Sizeof(Agent{}), uintptr(224); got > was {
		t.Errorf("locind.Agent is %d bytes, was %d before the shared inbox", got, was)
	}
}
