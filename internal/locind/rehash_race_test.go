package locind

import (
	"fmt"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// A three-server region with a spare wired in for the add-server case.
const (
	t1 graph.NodeID = 201
	t2 graph.NodeID = 202
	t3 graph.NodeID = 203
	t4 graph.NodeID = 204 // spare, not in the initial rotation
)

type raceWorld struct {
	sched *sim.Scheduler
	net   *netsim.Network
	sys   *System
}

func newRaceWorld(t *testing.T) *raceWorld {
	t.Helper()
	g := graph.New()
	for _, n := range []struct {
		id    graph.NodeID
		label string
		kind  graph.Kind
	}{
		{ha, "ha", graph.KindHost}, {hb, "hb", graph.KindHost}, {hc, "hc", graph.KindHost},
		{t1, "T1", graph.KindServer}, {t2, "T2", graph.KindServer},
		{t3, "T3", graph.KindServer}, {t4, "T4", graph.KindServer},
	} {
		g.MustAddNode(graph.Node{ID: n.id, Label: n.label, Region: "R1", Kind: n.kind})
	}
	g.MustAddEdge(ha, t1, 1)
	g.MustAddEdge(hb, t2, 1)
	g.MustAddEdge(hc, t3, 1)
	g.MustAddEdge(t1, t2, 1)
	g.MustAddEdge(t2, t3, 1)
	g.MustAddEdge(t3, t1, 2)
	g.MustAddEdge(t4, t1, 1)

	sched := sim.New(41)
	net := netsim.New(sched, g)
	net.AfterRecycle(poisonPayload) // every test of this world runs on scribbled boxes
	sys, err := NewSystem(Config{
		Region: "R1", Net: net,
		Servers:   []graph.NodeID{t1, t2, t3},
		Subgroups: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		tok string
		id  graph.NodeID
	}{{"ha", ha}, {"hb", hb}, {"hc", hc}} {
		if _, err := sys.AddHost(h.tok, h.id); err != nil {
			t.Fatal(err)
		}
	}
	return &raceWorld{sched: sched, net: net, sys: sys}
}

// TestRehashRacesInFlightDeliveries is the reconfiguration table test: every
// way the sub-group map can change — sub-groups added, removed, a server
// joining, a server leaving — races in-flight deliveries and mid-flight
// roams, and afterwards every user's resolution is consistent (their
// authority list serves their mail) and delivery is exactly-once.
func TestRehashRacesInFlightDeliveries(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, w *raceWorld)
	}{
		{"rehash-up", func(t *testing.T, w *raceWorld) {
			// 7 is coprime to the 3 servers, so sub-groups genuinely remap.
			if _, err := w.sys.Rehash(7); err != nil {
				t.Fatal(err)
			}
		}},
		{"rehash-down", func(t *testing.T, w *raceWorld) {
			if _, err := w.sys.Rehash(4); err != nil {
				t.Fatal(err)
			}
		}},
		{"add-server", func(t *testing.T, w *raceWorld) {
			if err := w.sys.AddServer(t4); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove-server", func(t *testing.T, w *raceWorld) {
			if _, err := w.sys.RemoveServer(t1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newRaceWorld(t)
			sender := mustAgent(t, w.sys, names.MustParse("R1.hb.sender"))

			const users = 8
			agents := make([]*Agent, users)
			uname := make([]names.Name, users)
			hostOf := []string{"ha", "hb"}
			for i := range agents {
				uname[i] = names.Name{Region: "R1", Host: hostOf[i%2], User: fmt.Sprintf("u%d", i)}
				agents[i] = mustAgent(t, w.sys, uname[i])
				if i%3 == 0 {
					if err := agents[i].Login(); err != nil {
						t.Fatal(err)
					}
				}
			}
			w.sched.Run()

			// Wave 1 leaves deliveries in flight when the mutation lands.
			for i := range agents {
				if err := sender.Send([]names.Name{uname[i]}, "w1", "body"); err != nil {
					t.Fatal(err)
				}
			}
			w.sched.RunFor(2 * sim.Unit) // mid-flight: acks and deposits pending

			// Some users roam mid-reconfiguration.
			for i := 0; i < users; i += 2 {
				if err := agents[i].MoveTo(hc); err != nil {
					t.Fatal(err)
				}
				_ = agents[i].Login()
			}
			tc.mutate(t, w)

			// Wave 2 is addressed under the new map while wave 1 still drains.
			for i := range agents {
				if err := sender.Send([]names.Name{uname[i]}, "w2", "body"); err != nil {
					t.Fatal(err)
				}
			}
			w.sched.RunFor(3 * sim.Unit)
			for i := 1; i < users; i += 2 {
				if err := agents[i].MoveTo(hc); err != nil {
					t.Fatal(err)
				}
				_ = agents[i].Login()
			}
			w.sched.Run()

			// Resolution consistency: every user's authority list exists, has
			// no removed server, and holding servers are within the list.
			live := make(map[graph.NodeID]bool)
			for _, id := range w.sys.Servers() {
				live[id] = true
			}
			for i := range agents {
				auth := w.sys.Resolve(uname[i])
				if len(auth) == 0 {
					t.Fatalf("%v resolves to an empty authority list", uname[i])
				}
				for _, id := range auth {
					if !live[id] {
						t.Fatalf("%v's authority %d not in rotation %v", uname[i], id, w.sys.Servers())
					}
				}
			}

			// Exactly-once: both waves arrive, nothing duplicated, nothing
			// stranded on an evacuated server.
			for i := range agents {
				agents[i].GetMail()
				agents[i].GetMail() // second poll must find nothing new
				if got := len(agents[i].Inbox()); got != 2 {
					t.Errorf("%s: u%d received %d copies, want exactly 2", tc.name, i, got)
				}
				if d := agents[i].Duplicates(); d != 0 {
					// Cross-server duplicate suppression happens inside the
					// agent; what matters is the inbox, but surface the count.
					t.Logf("%s: u%d suppressed %d duplicate copies", tc.name, i, d)
				}
			}
		})
	}
}

// TestRehashRoundTripKeepsMail pins the evacuation suppression-memory fix:
// a message evacuated off its authority server by one rehash and routed back
// by the next must be re-deposited there, not swallowed as a duplicate by
// the server's seen-set. (Needs ≥4 servers: with 3 servers and 2-entry
// authority lists, no pair of sub-group counts can move a mailbox away and back.)
func TestRehashRoundTripKeepsMail(t *testing.T) {
	w := newRaceWorld(t)
	if err := w.sys.AddServer(t4); err != nil {
		t.Fatal(err)
	}

	// Probe for a user whose head under 6 sub-groups is excluded from their
	// authority list under 7 AND vice versa — the round-trip shape.
	authUnder := func(k int, n names.Name) []graph.NodeID {
		if _, err := w.sys.Rehash(k); err != nil {
			t.Fatal(err)
		}
		return w.sys.Resolve(n)
	}
	contains := func(list []graph.NodeID, id graph.NodeID) bool {
		for _, x := range list {
			if x == id {
				return true
			}
		}
		return false
	}
	var victim names.Name
	for i := 0; i < 200; i++ {
		n := names.Name{Region: "R1", Host: "ha", User: fmt.Sprintf("rt%d", i)}
		a6, a7 := authUnder(6, n), authUnder(7, n)
		if !contains(a7, a6[0]) && !contains(a6, a7[0]) {
			victim = n
			break
		}
	}
	if victim.User == "" {
		t.Fatal("no round-trip candidate among 200 users")
	}
	if _, err := w.sys.Rehash(6); err != nil {
		t.Fatal(err)
	}

	sender := mustAgent(t, w.sys, names.MustParse("R1.hb.sender"))
	rcpt := mustAgent(t, w.sys, victim)
	if err := sender.Send([]names.Name{victim}, "rt", "body"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()

	if moved, err := w.sys.Rehash(7); err != nil || moved != 1 {
		t.Fatalf("rehash to 7: moved=%d err=%v, want the one mailbox to move", moved, err)
	}
	w.sched.Run()
	if moved, err := w.sys.Rehash(6); err != nil || moved != 1 {
		t.Fatalf("rehash back to 6: moved=%d err=%v, want the mailbox to move back", moved, err)
	}
	w.sched.Run()

	if got := rcpt.GetMail(); len(got) != 1 {
		t.Fatalf("after round-trip rehash GetMail = %d messages, want 1", len(got))
	}
}

// TestRehashMovesOnlyNewGroup: a rehash from k to k+1 sub-groups, or from k+1
// back to k, evacuates exactly the mailboxes of users entering or leaving
// sub-group k whose holder is off their new authority list. Every other mailbox stays
// where it was, and once the evacuation drains every message is on its
// user's list.
func TestRehashMovesOnlyNewGroup(t *testing.T) {
	w := newRaceWorld(t)
	const users = 600
	holder := make([]graph.NodeID, users)
	for i := range holder {
		u := tableUser(i)
		holder[i] = w.sys.Resolve(u)[0]
		p, _ := w.sys.Server(holder[i])
		p.Store().Deposit(u, mail.Message{
			ID: mail.MessageID{Node: 1, Seq: uint64(i + 1)}, To: []names.Name{u}, Subject: "s", Body: "b",
		}, 0)
	}
	for _, k := range []int{7, 8, 9, 8, 7, 6} {
		prev := w.sys.Subgroups()
		edge := max(prev, k) - 1 // the sub-group only the larger count has
		moved, err := w.sys.Rehash(k)
		if err != nil {
			t.Fatal(err)
		}
		left := 0
		for i := range holder {
			u := tableUser(i)
			p, _ := w.sys.Server(holder[i])
			changed := u.Subgroup(prev) != u.Subgroup(k)
			if changed && u.Subgroup(max(prev, k)) != edge {
				t.Errorf("%d → %d: %v moved between sub-groups %d and %d", prev, k, u, u.Subgroup(prev), u.Subgroup(k))
			}
			gone := p.MailboxLen(u) == 0
			if want := changed && !slices.Contains(w.sys.Resolve(u), holder[i]); gone != want {
				t.Errorf("%d → %d: %v's mailbox left %d: %v, want %v (sub-group %d → %d)", prev, k, u, holder[i], gone, want, u.Subgroup(prev), u.Subgroup(k))
			}
			if gone {
				left++
			}
		}
		if moved != left || moved == 0 || moved > users/k {
			t.Errorf("%d → %d: Rehash moved %d mailboxes, %d left their holder, want 0 < n ≤ %d", prev, k, moved, left, users/k)
		}
		w.sched.Run()
		for i := range holder {
			u := tableUser(i)
			list := w.sys.Resolve(u)
			at := slices.IndexFunc(list, func(id graph.NodeID) bool {
				p, _ := w.sys.Server(id)
				return p.MailboxLen(u) == 1
			})
			if at < 0 {
				t.Fatalf("%d → %d: no server of %v holds %v's message", prev, k, list, u)
			}
			holder[i] = list[at]
		}
	}
}
