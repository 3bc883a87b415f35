package locind

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
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
	for _, sid := range a.sys.Resolve(a.user) {
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
						_, _ = srv.Submit(server.SubmitRequest{From: uBob, To: []names.Name{rcpt}, Subject: "s", Body: "b"}) // refused alike while sid is down
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

// The delivery reference. Until the servers of this package became
// internal/server's, locind carried its own copy of §3.1.2's delivery half —
// ID assignment, first-active deposit, acked and retried Deposit/Forward
// transfers, the inter-region forward, the stale-authority bounce, the crash
// re-drive and a mailbox map. testdata/delivery.golden holds what the seeded
// schedules below printed on that copy (the parent commit, with submitAt and
// depositsAt reaching its Accept and Deposits). On a failure-free,
// rehash-free schedule everything observable must be what it was: deposits
// per server, the network's message count and cost, every inbox and every
// alert in order, and the notification and consultation counts. With
// rehashes, crashes and recoveries the walk may differ (a recovered origin now
// restarts at the head of the list), so only the set of delivered copies must
// be the same — and every copy committed is retrieved exactly once.

// refSchedule is one seeded schedule of the delivery reference.
type refSchedule struct {
	regions, servers int
	seed             int64
	faults           bool // rehashes, crashes and recoveries between the sends
}

func (sc refSchedule) String() string {
	return fmt.Sprintf("regions=%d servers=%d seed=%d faults=%v", sc.regions, sc.servers, sc.seed, sc.faults)
}

// runRefSchedule builds sc's world — per region three hosts and sc.servers
// servers in a ring, the regions joined at their first servers, list length
// 2, six users each — and runs 300 seeded steps of submissions across
// regions, roams with a login at the new host, logins and logouts and
// retrievals, plus under sc.faults a crash or recovery (one server per region
// always up) and a rehash. It checks exactly-once delivery against the ledger
// of committed copies and returns the line the golden holds for sc.
func runRefSchedule(t *testing.T, sc refSchedule) string {
	t.Helper()
	g := graph.New()
	hostID := func(r, i int) graph.NodeID { return graph.NodeID(1000*(r+1) + i) }
	serverID := func(r, j int) graph.NodeID { return graph.NodeID(1000*(r+1) + 100 + j) }
	for r := 0; r < sc.regions; r++ {
		region := fmt.Sprintf("R%d", r+1)
		for i := 0; i < 3; i++ {
			g.MustAddNode(graph.Node{ID: hostID(r, i), Label: fmt.Sprintf("h%d", i), Region: region, Kind: graph.KindHost})
		}
		for j := 0; j < sc.servers; j++ {
			g.MustAddNode(graph.Node{ID: serverID(r, j), Label: fmt.Sprintf("S%d", j), Region: region, Kind: graph.KindServer})
		}
		for i := 0; i < 3; i++ {
			g.MustAddEdge(hostID(r, i), serverID(r, i%sc.servers), float64(1+i))
		}
		for j := 0; j < sc.servers; j++ {
			if next := (j + 1) % sc.servers; next != j && (sc.servers > 2 || j == 0) {
				g.MustAddEdge(serverID(r, j), serverID(r, next), float64(1+j))
			}
		}
		if r > 0 {
			g.MustAddEdge(serverID(r-1, 0), serverID(r, 0), 3)
		}
	}
	sched := sim.New(sc.seed)
	net := netsim.New(sched, g)
	fed := NewFederation()
	var systems []*System
	var agents []*Agent
	for r := 0; r < sc.regions; r++ {
		servers := make([]graph.NodeID, sc.servers)
		for j := range servers {
			servers[j] = serverID(r, j)
		}
		sys, err := NewSystem(Config{Region: fmt.Sprintf("R%d", r+1), Net: net, Servers: servers, ListLen: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.Add(sys); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sys.AddHost(fmt.Sprintf("h%d", i), hostID(r, i)); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < 6; u++ {
			a := mustAgent(t, sys, names.Name{Region: sys.Region(), Host: fmt.Sprintf("h%d", u%3), User: fmt.Sprintf("u%d", u)})
			if u%2 == 0 {
				_ = a.Login()
			}
			agents = append(agents, a)
		}
		systems = append(systems, sys)
	}
	regionOf := func(a *Agent) int { return int(a.CurrentHost())/1000 - 1 }
	rng := rand.New(rand.NewSource(sc.seed))
	owed := make([]map[mail.MessageID]bool, len(agents))
	for i := range owed {
		owed[i] = map[mail.MessageID]bool{}
	}
	for step := 0; step < 300; step++ {
		a := agents[rng.Intn(len(agents))]
		sys := systems[regionOf(a)]
		switch op := rng.Intn(10); {
		case op < 4:
			to := []int{rng.Intn(len(agents))}
			if rng.Intn(3) == 0 {
				to = append(to, rng.Intn(len(agents)))
			}
			rcpts := make([]names.Name, len(to))
			for i, u := range to {
				rcpts[i] = agents[u].User()
			}
			sid, err := sys.NearestServer(a.CurrentHost())
			if err != nil {
				continue
			}
			srv, _ := sys.Server(sid)
			if id, err := submitAt(srv, a.User(), rcpts); err == nil {
				for _, u := range to {
					owed[u][id] = true
				}
			}
		case op < 5:
			if a.MoveTo(hostID(regionOf(a), rng.Intn(3))) == nil {
				_ = a.Login()
			}
		case op < 6:
			if a.LoggedIn() {
				_ = a.Logout()
			} else {
				_ = a.Login()
			}
		case op < 7:
			a.GetMail()
		case op < 8 && sc.faults:
			id := serverID(regionOf(a), rng.Intn(sc.servers))
			up := 0
			for _, sid := range sys.Servers() {
				if net.IsUp(sid) {
					up++
				}
			}
			if !net.IsUp(id) {
				net.Recover(id)
			} else if up > 1 {
				net.Crash(id)
			}
		case op < 9 && sc.faults:
			if _, err := sys.Rehash(2*sc.servers + rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		default:
			sched.RunFor(sim.Time(1+rng.Intn(5)) * sim.Unit)
		}
	}
	for _, sys := range systems {
		for _, id := range sys.Servers() {
			net.Recover(id)
		}
	}
	sched.Run()

	inboxes, alerts := fnv.New64a(), fnv.New64a()
	copies := 0
	for i, a := range agents {
		a.GetMail()
		if again := a.GetMail(); len(again) != 0 {
			t.Errorf("%v: %v: a second retrieval found %d more messages", sc, a.User(), len(again))
		}
		got := map[mail.MessageID]bool{}
		ids := make([]string, 0, len(owed[i]))
		for _, m := range a.Inbox() {
			if got[m.ID] {
				t.Errorf("%v: %v received %v twice", sc, a.User(), m.ID)
			}
			got[m.ID] = true
			if !owed[i][m.ID] {
				t.Errorf("%v: %v received %v, which nobody sent them", sc, a.User(), m.ID)
			}
			ids = append(ids, m.ID.String())
		}
		for id := range owed[i] {
			if !got[id] {
				t.Errorf("%v: %v never received %v", sc, a.User(), id)
			}
		}
		copies += len(owed[i])
		if sc.faults {
			slices.Sort(ids) // the set, not the order
		}
		fmt.Fprintf(inboxes, "%v: %v\n", a.User(), ids)
		for _, n := range a.Notifications() {
			fmt.Fprintf(alerts, "%v: %v from %d\n", a.User(), n.ID, n.Server)
		}
	}
	if sc.faults {
		return fmt.Sprintf("%d copies, delivered set %016x", copies, inboxes.Sum64())
	}
	var deposits []int64
	counts := map[string]int64{}
	for _, sys := range systems {
		for _, id := range sys.Servers() {
			srv, _ := sys.Server(id)
			deposits = append(deposits, depositsAt(srv))
		}
		for _, c := range []string{"consultations", "notify_home", "notify_roaming", "notify_offline", "notify_probe_primary", "notify_unknown_host"} {
			counts[c] += sys.Stats().Get(c)
		}
	}
	st := net.Stats()
	return fmt.Sprintf("%d copies, inboxes %016x, alerts %016x, deposits %v, delivered %d cost_milli %d, consultations %d notify_home %d notify_roaming %d notify_offline %d notify_probe_primary %d notify_unknown_host %d",
		copies, inboxes.Sum64(), alerts.Sum64(), deposits, st.Get("delivered"), st.Get("cost_milli"),
		counts["consultations"], counts["notify_home"], counts["notify_roaming"], counts["notify_offline"], counts["notify_probe_primary"], counts["notify_unknown_host"])
}

// refSchedules are the schedules the golden covers: one and two regions, two
// to four servers each, three seeds, without and with faults.
func refSchedules() []refSchedule {
	var out []refSchedule
	for _, faults := range []bool{false, true} {
		for regions := 1; regions <= 2; regions++ {
			for servers := 2; servers <= 4; servers++ {
				for seed := int64(1); seed <= 3; seed++ {
					out = append(out, refSchedule{regions, servers, seed, faults})
				}
			}
		}
	}
	return out
}

// TestDeliveryMatchesReference holds the schedules to the parent's delivery.
func TestDeliveryMatchesReference(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "delivery.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	scheds := refSchedules()
	if len(lines) != len(scheds) {
		t.Fatalf("golden has %d lines for %d schedules", len(lines), len(scheds))
	}
	for i, sc := range scheds {
		if got := sc.String() + ": " + runRefSchedule(t, sc); got != lines[i] {
			t.Errorf("schedule differs from the reference:\n got %s\nwant %s", got, lines[i])
		}
	}
}

// submitAt and depositsAt are where the schedule reaches a server.
func submitAt(srv *server.Server, from names.Name, to []names.Name) (mail.MessageID, error) {
	return srv.Submit(server.SubmitRequest{From: from, To: to, Subject: "s", Body: "b"})
}

func depositsAt(srv *server.Server) int64 { return srv.Stats().Get("deposits_local") }
