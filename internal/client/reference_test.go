package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// refAgent is the retrieval half of Agent as it stood before mail.Inbox and
// mail.Unavailable.Walk replaced it: poll with its own adopt-or-append loop,
// walk with its own two passes, both kept verbatim (the name-server refresh,
// which the shared code did not touch, is left out). It retrieves through the
// Agent it wraps — same user, host, network, servers, authority list — and
// keeps its own §3.1.2c state, inbox and counters.
type refAgent struct {
	*Agent
	lastChecking sim.Time
	prevUnavail  map[graph.NodeID]bool
	seen         mail.IDSet
	inbox        []mail.Stored
	stats        Stats
}

func (a *refAgent) poll(id graph.NodeID) (got int) {
	srv := a.servers(id)
	if srv == nil {
		return 0
	}
	a.stats.Polls++
	if c, err := a.net.Cost(a.host.id, id); err == nil {
		a.stats.PollCost += 2 * c // round trip
	}
	msgs, err := srv.CheckMail(a.user)
	if err != nil || len(msgs) == 0 {
		return 0
	}
	adopt := len(a.inbox) == 0
	for i := range msgs {
		if !a.seen.Add(msgs[i].ID) {
			a.stats.Duplicates++
			if adopt {
				adopt = false
				a.inbox = append(a.inbox, msgs[:i]...)
			}
			continue
		}
		if !adopt {
			a.inbox = append(a.inbox, msgs[i])
		}
		a.stats.Received++
		got++
	}
	if adopt {
		a.inbox = msgs[:len(msgs):len(msgs)]
	}
	return got
}

func (a *refAgent) GetMail() []mail.Stored {
	return append([]mail.Stored(nil), a.inbox[a.walk():]...)
}

func (a *refAgent) TakeMail() []mail.Stored {
	out := a.inbox[a.walk():]
	a.inbox = nil
	return out
}

func (a *refAgent) walk() int {
	a.stats.Retrievals++
	before := len(a.inbox)
	current := a.net.Scheduler().Now()

	finished := false
	for _, s := range a.authority {
		if finished {
			break
		}
		if a.net.IsUp(s) {
			a.poll(s)
			delete(a.prevUnavail, s)
			lastStart, _ := a.net.LastStart(s)
			if a.lastChecking > lastStart {
				finished = true
			}
		} else {
			a.stats.FailedProbes++
			if a.prevUnavail == nil {
				a.prevUnavail = make(map[graph.NodeID]bool)
			}
			a.prevUnavail[s] = true
		}
	}
	// "Get old mail in servers that might have it but were unavailable."
	for _, s := range a.authority { // authority order keeps runs deterministic
		if !a.prevUnavail[s] {
			continue
		}
		if a.net.IsUp(s) {
			a.poll(s)
			delete(a.prevUnavail, s)
		}
	}
	a.lastChecking = current
	return before
}

func (a *refAgent) PollAll() []mail.Stored {
	a.stats.Retrievals++
	before := len(a.inbox)
	for _, s := range a.authority {
		if a.net.IsUp(s) {
			a.poll(s)
		} else {
			a.stats.FailedProbes++
		}
	}
	return append([]mail.Stored(nil), a.inbox[before:]...)
}

func (a *refAgent) PreviouslyUnavailable() []graph.NodeID {
	var out []graph.NodeID
	for _, s := range a.authority {
		if a.prevUnavail[s] {
			out = append(out, s)
		}
	}
	return out
}

// TestWalkMatchesReference drives two identical worlds through one seeded
// schedule — sends, the same ID planted on both servers, crashes and restarts,
// authority lists that shrink, swap and grow back (a server can leave the
// list while it is in PreviouslyUnavailableServers and return later: this
// agent does not prune), and retrievals by GetMail, TakeMail and PollAll. One
// reader runs the shared inbox and walk, the other the code they replaced.
// After every retrieval the batch, the inbox, the counters,
// PreviouslyUnavailableServers and LastCheckingTime must be the same.
func TestWalkMatchesReference(t *testing.T) {
	lists := [][]graph.NodeID{{ms1, ms2}, {ms2, ms1}, {ms1}, {ms2}}
	retrievals, dups, failed, handed := 0, 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		shared, old := newMatrixWorld(t), newMatrixWorld(t)
		worlds := []*matrixWorld{shared, old}
		ref := &refAgent{Agent: old.reader}
		rng := rand.New(rand.NewSource(seed))
		sent := 0
		for step := 0; step < 100; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(12); {
			case op < 3:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					sent++
					for _, w := range worlds {
						if w.net.IsUp(ms1) || w.net.IsUp(ms2) {
							w.send(t, fmt.Sprintf("s%d", sent))
						}
					}
				}
			case op < 4: // the same ID on both servers
				id := mail.MessageID{Node: 77, Seq: uint64(step)}
				for _, w := range worlds {
					m := mail.Message{ID: id, From: w.sender.user, To: []names.Name{w.reader.user}, Subject: "dup"}
					for _, sid := range []graph.NodeID{ms1, ms2} {
						_ = w.net.Send(mh1, sid, new(netsim.FreeList[server.Transfer]).Box(server.Transfer{
							Kind: server.TransferDeposit, Msg: m, Recipient: w.reader.user, Origin: mh1, Token: uint64(sid),
						}))
					}
					w.sched.Run()
				}
			case op < 6: // down, or up again with a fresh LastStartTime
				s := []graph.NodeID{ms1, ms2}[rng.Intn(2)]
				for _, w := range worlds {
					if w.net.IsUp(s) {
						w.net.Crash(s)
					} else {
						w.net.Recover(s)
					}
					w.sched.Run()
				}
			case op < 7: // a restart between two retrievals
				s := []graph.NodeID{ms1, ms2}[rng.Intn(2)]
				for _, w := range worlds {
					w.net.Crash(s)
					w.sched.RunFor(sim.Unit)
					w.net.Recover(s)
					w.sched.Run()
				}
			case op < 8:
				list := lists[rng.Intn(len(lists))]
				for _, w := range worlds {
					if err := w.reader.SetAuthority(list); err != nil {
						t.Fatal(err)
					}
				}
			default:
				for _, w := range worlds {
					w.sched.RunFor(sim.Unit)
				}
				var got, want []mail.Stored
				switch rng.Intn(4) {
				case 0:
					got, want = shared.reader.TakeMail(), ref.TakeMail()
					handed++
				case 1:
					got, want = shared.reader.PollAll(), ref.PollAll()
				default:
					got, want = shared.reader.GetMail(), ref.GetMail()
				}
				retrievals++
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: retrieved %v, reference %v", ctx, got, want)
				}
				if in := shared.reader.Inbox(); len(in) != len(ref.inbox) || (len(in) > 0 && !reflect.DeepEqual(in, ref.inbox)) {
					t.Fatalf("%s: inbox %v, reference %v", ctx, in, ref.inbox)
				}
				gs, ws := shared.reader.Stats(), ref.stats
				ws.ListUpdates = gs.ListUpdates // SetAuthority's, counted on the wrapped agent
				if gs != ws {
					t.Fatalf("%s: stats %+v, reference %+v", ctx, gs, ws)
				}
				if g, w := shared.reader.PreviouslyUnavailable(), ref.PreviouslyUnavailable(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: PreviouslyUnavailable %v, reference %v", ctx, g, w)
				}
				if !reflect.DeepEqual(map[graph.NodeID]bool(shared.reader.prevUnavail), ref.prevUnavail) {
					t.Fatalf("%s: the whole set %v, reference %v", ctx, shared.reader.prevUnavail, ref.prevUnavail)
				}
				if g, w := shared.reader.LastCheckingTime(), ref.lastChecking; g != w {
					t.Fatalf("%s: LastCheckingTime %d, reference %d", ctx, g, w)
				}
			}
		}
		dups += ref.stats.Duplicates
		failed += ref.stats.FailedProbes
	}
	if retrievals < 1000 || dups < 30 || failed < 200 || handed < 200 {
		t.Fatalf("the schedules made %d retrievals (%d handed over), suppressed %d duplicates and failed %d probes; too few to prove anything",
			retrievals, handed, dups, failed)
	}
}

// TestAgentSizeNotGrown pins what an idle user costs: the shared inbox and
// PreviouslyUnavailableServers types are a slice and a map, as the fields they
// replaced were.
func TestAgentSizeNotGrown(t *testing.T) {
	if got, was := unsafe.Sizeof(Agent{}), uintptr(320); got > was {
		t.Errorf("client.Agent is %d bytes, was %d before the shared inbox and walk", got, was)
	}
}
