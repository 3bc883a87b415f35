package livenet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// refAgent is Agent's retrieval as it stood before mail.Inbox and
// mail.Unavailable.Walk replaced it, kept verbatim: walk with its own two
// passes and the prune between them, poll with its own adopt-or-append loop,
// LastCheckingTime as a time.Time.
type refAgent struct {
	user    names.Name
	cluster *Cluster

	lastChecking time.Time
	prevUnavail  map[string]bool
	seen         mail.IDSet
	inbox        []mail.Stored
	polls        int
	retrievals   int
}

func (a *refAgent) Inbox() []mail.Stored { return append([]mail.Stored(nil), a.inbox...) }
func (a *refAgent) Polls() int           { return a.polls }

func (a *refAgent) GetMail() []mail.Stored {
	return append([]mail.Stored(nil), a.inbox[a.walk():]...)
}

func (a *refAgent) TakeMail() []mail.Stored {
	a.walk()
	out := a.inbox
	a.inbox = nil
	return out
}

func (a *refAgent) GiveBack(rest []mail.Stored) { a.inbox = rest }

func (a *refAgent) walk() int {
	a.retrievals++
	before := len(a.inbox)
	current := time.Now()
	list := a.cluster.dir.Authority(a.user)
	finished := false
	for _, name := range list {
		if finished {
			break
		}
		s, ok := a.cluster.Server(name)
		if !ok {
			continue
		}
		if s.Up() {
			if err := a.poll(s); err != nil {
				a.markUnavail(name)
				continue
			}
			delete(a.prevUnavail, name)
			if a.lastChecking.After(s.LastStart()) {
				finished = true
			}
		} else {
			a.markUnavail(name)
		}
	}
	for name := range a.prevUnavail {
		if !slices.Contains(list, name) {
			delete(a.prevUnavail, name)
		}
	}
	for _, name := range list {
		if !a.prevUnavail[name] {
			continue
		}
		if s, ok := a.cluster.Server(name); ok && s.Up() {
			if err := a.poll(s); err != nil {
				continue // stays previously-unavailable for the next retrieval
			}
			delete(a.prevUnavail, name)
		}
	}
	a.lastChecking = current
	return before
}

func (a *refAgent) markUnavail(name string) {
	if a.prevUnavail == nil {
		a.prevUnavail = make(map[string]bool)
	}
	a.prevUnavail[name] = true
}

func (a *refAgent) PreviouslyUnavailable() []string {
	var out []string
	for _, name := range a.cluster.dir.Authority(a.user) {
		if a.prevUnavail[name] {
			out = append(out, name)
		}
	}
	return out
}

func (a *refAgent) poll(s *Server) error {
	a.polls++
	msgs, err := s.CheckMail(a.user)
	if err != nil {
		return err
	}
	if len(msgs) == 0 {
		return nil
	}
	adopt := len(a.inbox) == 0
	for i := range msgs {
		id := msgs[i].ID
		if !a.seen.Add(id) {
			if adopt {
				adopt = false
				a.inbox = append(a.inbox, msgs[:i]...)
			}
			continue
		}
		if !adopt {
			a.inbox = append(a.inbox, msgs[i])
		}
		a.cluster.trace.StampKey(id.TraceKey(), obs.StageRetrieve, s.name)
	}
	if adopt {
		a.inbox = msgs[:len(msgs):len(msgs)]
	}
	return nil
}

// retriever is what the schedule below asks of either agent.
type retriever interface {
	GetMail() []mail.Stored
	TakeMail() []mail.Stored
	GiveBack([]mail.Stored)
	Inbox() []mail.Stored
	Polls() int
	PreviouslyUnavailable() []string
}

// runWalkSchedule drives one cluster through the schedule of seed and logs
// every retrieval: submits, the same ID planted on a second server, crashes
// and recoveries, servers that are up but cannot be polled (unreachable, or
// dropping every request), a name with no server process on the list, lists
// that shrink and grow back, and retrievals by GetMail, by TakeMail, and by
// TakeMail with the batch's tail given back.
func runWalkSchedule(t *testing.T, seed int64, agent func(*Cluster) retriever) (log []string, delivered, failed int) {
	t.Helper()
	c := newCluster(t)
	a := agent(c)
	rng := rand.New(rand.NewSource(seed))
	servers := []string{"s1", "s2", "s3"}
	lists := [][]string{
		{"s1", "s2", "s3"}, {"s3", "s1", "s2"}, {"s2", "s3"}, {"s1"}, {"s2", "ghost", "s1"}, {"s3", "s2", "s1"},
	}
	var sent []mail.Message
	pick := func() *Server {
		s, _ := c.Server(servers[rng.Intn(len(servers))])
		return s
	}
	for step := 0; step < 90; step++ {
		switch op := rng.Intn(14); {
		case op < 3:
			if _, ok := c.firstAvailable(alice); !ok {
				continue // no spool here: nothing would take it
			}
			subject := fmt.Sprintf("s%d", step)
			id, err := c.Submit(bob, []names.Name{alice}, subject, "body "+subject)
			if err != nil {
				continue // the first available server drops every request
			}
			sent = append(sent, mail.Message{ID: id, From: bob, To: []names.Name{alice}, Subject: subject, Body: "body " + subject})
		case op < 4: // a second server holds a copy of a message already sent
			if len(sent) > 0 {
				_ = pick().Deposit(sent[rng.Intn(len(sent))], alice) // refused while the server cannot be reached
			}
		case op < 6:
			if s := pick(); s.Up() {
				s.Crash()
			} else {
				s.Recover()
				time.Sleep(time.Millisecond) // the recovery stamp is strictly before the next walk
			}
		case op < 7: // up, but every poll fails; reachable again stamps LastStartTime
			s := pick()
			s.SetReachable(!s.Reachable())
			time.Sleep(time.Millisecond)
		case op < 8: // up, every poll fails, and clearing it stamps nothing
			s := pick()
			if s.dropMilli.Load() > 0 {
				s.SetDropProb(0)
			} else {
				s.SetDropProb(1)
			}
		case op < 9:
			c.Directory().SetAuthority(alice, lists[rng.Intn(len(lists))])
		default:
			var batch []mail.Stored
			how := rng.Intn(4)
			switch how {
			case 0:
				batch = a.TakeMail()
			case 1: // the owner passes on half and gives the rest back
				batch = a.TakeMail()
				keep := len(batch) / 2
				a.GiveBack(batch[keep:])
				batch = batch[:keep:keep]
			default:
				batch = a.GetMail()
			}
			delivered += len(batch)
			failed += len(a.PreviouslyUnavailable())
			var ids, held []string
			for _, m := range batch {
				ids = append(ids, m.ID.String()+"/"+m.Subject)
			}
			for _, m := range a.Inbox() {
				held = append(held, m.ID.String())
			}
			log = append(log, fmt.Sprintf("step %d how %d: batch %v inbox %v polls %d prev %v",
				step, how, ids, held, a.Polls(), a.PreviouslyUnavailable()))
		}
	}
	return log, delivered, failed
}

// TestWalkMatchesReference runs each seeded schedule twice, once with the
// agent on the shared inbox and walk and once with the code they replaced, and
// wants the same log: every batch in the same order, the same inbox, the same
// poll count and the same PreviouslyUnavailableServers after every retrieval.
// LastCheckingTime is wall-clock time and cannot be compared across two runs;
// what it decides — where a walk stops — shows in the poll counts.
func TestWalkMatchesReference(t *testing.T) {
	delivered, failed := 0, 0
	for seed := int64(1); seed <= 16; seed++ {
		want, _, _ := runWalkSchedule(t, seed, func(c *Cluster) retriever { return &refAgent{user: alice, cluster: c} })
		got, d, f := runWalkSchedule(t, seed, func(c *Cluster) retriever {
			a, err := c.NewAgent(alice)
			if err != nil {
				t.Fatal(err)
			}
			return a
		})
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d retrieval %d:\n got %s\nwant %s", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d retrievals, reference %d", seed, len(got), len(want))
		}
		delivered += d
		failed += f
	}
	if delivered < 100 || failed < 100 {
		t.Fatalf("the schedules delivered %d messages and listed %d unavailable servers; too few to prove anything", delivered, failed)
	}
}

// TestLastCheckingTimeIsTheWalksClockReading: the agent keeps LastCheckingTime
// as unix nanoseconds, the clock Server.LastStart is kept on; what it reports
// is still the reading taken when the walk began, and the zero time before.
func TestLastCheckingTimeIsTheWalksClockReading(t *testing.T) {
	c := newCluster(t)
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	if !a.LastCheckingTime().IsZero() {
		t.Errorf("LastCheckingTime before any retrieval = %v, want the zero time", a.LastCheckingTime())
	}
	before := time.Now()
	a.GetMail()
	after := time.Now()
	if got := a.LastCheckingTime(); got.Before(before.Truncate(0)) || got.After(after) {
		t.Errorf("LastCheckingTime %v outside the walk [%v, %v]", got, before, after)
	}
}

// TestAgentSizeNotGrown pins what an idle user costs (192 bytes with
// LastCheckingTime as a time.Time).
func TestAgentSizeNotGrown(t *testing.T) {
	if got, was := unsafe.Sizeof(Agent{}), uintptr(192); got > was {
		t.Errorf("livenet.Agent is %d bytes, was %d before the shared inbox and walk", got, was)
	}
}
