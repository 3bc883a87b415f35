package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// TestLostSubmitAckOwesTheMessage: a submission sent over the network commits
// when the server accepts it, not when the host hears so. A host-bound drop
// that eats the SubmitAck leaves a message that is accepted, owed to its
// recipient and never acknowledged — a state the in-process submissions of
// the loadgen drivers cannot reach. Under a seeded schedule of host-bound
// drop windows and server crashes, injected with faults.SimTarget: every acked
// message is retrieved exactly once with a complete trace, every unacked one
// at most once, and some unacked ones do arrive.
func TestLostSubmitAckOwesTheMessage(t *testing.T) {
	const tick = 10 * sim.Unit
	unackedDelivered := 0
	for seed := int64(1); seed <= 4; seed++ {
		g, users := twoRegionTopology()
		s, err := NewSyntax(SyntaxConfig{Topology: g, UsersPerHost: users, AuthorityLen: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make(map[string]graph.NodeID)
		spec := faults.Spec{Seed: seed, Ticks: 100, Crashes: 4, Drops: 6}
		for _, n := range g.Nodes() {
			nodes[n.Label] = n.ID
			switch {
			case n.Kind == graph.KindHost:
				spec.DropTargets = append(spec.DropTargets, n.Label)
			case n.Region == "R1": // R2's only server stays up
				spec.Servers = append(spec.Servers, n.Label)
			}
		}
		sched, err := faults.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.NewSimTarget(s.Net, nodes, tick)

		population := s.Users()
		rng := rand.New(rand.NewSource(seed))
		got := make(map[string]int) // subject → copies retrieved
		sweep := func() (n int) {
			for _, u := range population {
				a, _ := s.Agent(u)
				for _, m := range a.GetMail() {
					got[m.Subject]++
					n++
				}
			}
			return n
		}
		sent, next := 0, 0
		for tk := 0; tk < sched.Horizon(); tk++ {
			for ; next < len(sched.Events) && sched.Events[next].Tick <= tk; next++ {
				if err := inj.Inject(sched.Events[next]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				from, to := population[rng.Intn(len(population))], population[rng.Intn(len(population))]
				a, _ := s.Agent(from)
				if _, err := a.Send([]names.Name{to}, fmt.Sprintf("m%d", sent), "b"); err == nil {
					sent++
				}
			}
			if tk%5 == 0 {
				sweep()
			}
			s.RunFor(tick)
		}
		s.Run()
		for quiet := 0; quiet < 3; s.Run() {
			if sweep() == 0 {
				quiet++
			} else {
				quiet = 0
			}
			s.RunFor(tick)
		}

		acked := make(map[string]bool)
		var ackedIDs []obs.Key
		for _, h := range s.Hosts() {
			for _, ack := range h.Acks() {
				if !acked[ack.Subject] {
					acked[ack.Subject] = true
					ackedIDs = append(ackedIDs, ack.ID.TraceKey())
				}
			}
		}
		if len(acked) < sent/2 || len(acked) == sent {
			t.Fatalf("seed %d: %d of %d submissions acked; the schedule must eat some acks and leave most", seed, len(acked), sent)
		}
		for i := 0; i < sent; i++ {
			subject := fmt.Sprintf("m%d", i)
			switch n := got[subject]; {
			case acked[subject] && n != 1:
				t.Errorf("seed %d: acked %s retrieved %d times, want exactly once", seed, subject, n)
			case n > 1:
				t.Errorf("seed %d: unacked %s retrieved %d times, want at most once", seed, subject, n)
			case !acked[subject] && n == 1:
				unackedDelivered++
			}
		}
		if gaps := s.Tracer().Incomplete(ackedIDs); len(gaps) != 0 {
			t.Errorf("seed %d: %d acked messages with incomplete span chains: %v", seed, len(gaps), gaps)
		}
	}
	if unackedDelivered == 0 {
		t.Fatal("no submission was accepted, delivered and never acked: the drops ate no SubmitAck")
	}
}

// Hosts returns every host process, sorted by node ID. Hosts collect the
// submission acks, which is how callers learn which submissions the system
// has durably accepted.
func (f *Fabric) Hosts() []*client.Host {
	out := make([]*client.Host, 0, len(f.hosts))
	for _, h := range f.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Tracer returns the deployment-wide message-lifecycle tracer shared by
// every server, running on the simulated clock.
func (s *SyntaxSystem) Tracer() *obs.Tracer { return s.trace }
