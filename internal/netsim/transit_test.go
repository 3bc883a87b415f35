package netsim

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sim"
)

// randomNet builds a seeded random connected topology with a recorder on
// every node.
func randomNet(t testing.TB, seed int64, nodes, extraEdges int) (*sim.Scheduler, *Network, []*recorder) {
	t.Helper()
	g := graph.RandomConnected(rand.New(rand.NewSource(seed)), nodes, extraEdges, 1)
	sched := sim.New(seed)
	net := New(sched, g)
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{}
		net.MustRegister(graph.NodeID(i), recs[i])
	}
	return sched, net, recs
}

// checkAllPairs sends one message between every ordered pair and holds what
// the envelope carries to the path the graph package reconstructs: Hops is
// len(PathTo)-1, Cost is Dist, and a pair Dijkstra cannot reach is refused
// with ErrNoRoute.
func checkAllPairs(t *testing.T, sched *sim.Scheduler, net *Network, recs []*recorder) {
	t.Helper()
	for a := range recs {
		from := graph.NodeID(a)
		p, err := net.Topology().ShortestPaths(from)
		if err != nil {
			t.Fatal(err)
		}
		for b := range recs {
			to := graph.NodeID(b)
			dist, reachable := p.Dist[to]
			err := net.Send(from, to, b)
			if !reachable {
				if !errors.Is(err, ErrNoRoute) {
					t.Fatalf("%d→%d unreachable: Send err = %v, want ErrNoRoute", a, b, err)
				}
				if _, err := net.Cost(from, to); !errors.Is(err, ErrNoRoute) {
					t.Fatalf("%d→%d unreachable: Cost err = %v, want ErrNoRoute", a, b, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Send %d→%d: %v", a, b, err)
			}
			if c, err := net.Cost(from, to); err != nil || c != dist {
				t.Fatalf("Cost(%d,%d) = %v, %v; Dist %v", a, b, c, err, dist)
			}
			recs[b].got = recs[b].got[:0]
			sched.Run()
			if len(recs[b].got) != 1 {
				t.Fatalf("%d→%d delivered %d envelopes", a, b, len(recs[b].got))
			}
			env := recs[b].got[0]
			if want := len(p.PathTo(to)) - 1; env.Hops != want || env.Cost != dist {
				t.Fatalf("%d→%d: Hops %d Cost %v, want %d %v (path %v)",
					a, b, env.Hops, env.Cost, want, dist, p.PathTo(to))
			}
		}
	}
}

func TestRouteRowsMatchPaths(t *testing.T) {
	sched, net, recs := randomNet(t, 11, 40, 25)
	checkAllPairs(t, sched, net, recs)

	// Cut a fifth of the links — some cuts partition the graph, which must
	// turn into ErrNoRoute, not a stale row — and check again, then restore.
	edges := net.Topology().Edges()
	rng := rand.New(rand.NewSource(12))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	cut := edges[:len(edges)/5]
	for _, e := range cut {
		if err := net.FailLink(e.A, e.B); err != nil {
			t.Fatal(err)
		}
	}
	if net.Topology().Connected() {
		t.Fatal("cuts left the graph connected: the ErrNoRoute branch is not exercised, pick another seed")
	}
	checkAllPairs(t, sched, net, recs)
	for _, e := range cut {
		if err := net.RestoreLink(e.A, e.B, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	checkAllPairs(t, sched, net, recs)
}

// freeListClean fails the test if any landed flight still holds anything of
// the envelope it carried.
func freeListClean(t *testing.T, net *Network) {
	t.Helper()
	for i, f := range net.free {
		if f.env != (Envelope{}) {
			t.Fatalf("free flight %d still holds %+v", i, f.env)
		}
	}
}

// A flight goes back on the free list before the handler runs, so a handler
// that sends from inside Receive is handed the flight that is delivering to
// it. Nothing of one envelope may show up in the next — whether the flight
// landed, hit a crashed destination, or was dropped by an injected fault.
func TestRecycledFlightsNeverLeak(t *testing.T) {
	sched, net, recs := lineNet(t)
	type ping struct{ n int }

	// Node 1 bounces every ping to node 3 from inside Receive, then records
	// what it was handed: the bounce reuses the flight that carried the ping.
	var bounced []Envelope
	net.handlers[1] = HandlerFunc(func(env Envelope) {
		if err := net.Send(1, 3, ping{env.Payload.(ping).n + 100}); err != nil {
			t.Error(err)
		}
		bounced = append(bounced, env)
	})
	for i := 0; i < 5; i++ {
		if err := net.Send(0, 1, ping{i}); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		freeListClean(t, net)
	}
	if len(net.free) != 1 {
		t.Errorf("sequential ping-bounce grew the free list to %d flights, want 1 reused", len(net.free))
	}
	for i, env := range bounced {
		if env.From != 0 || env.To != 1 || env.Payload != (ping{i}) || env.Hops != 1 {
			t.Errorf("bounce %d saw %+v after sending from inside Receive", i, env)
		}
	}
	for i, env := range recs[3].got {
		if env.From != 1 || env.To != 3 || env.Payload != (ping{i + 100}) || env.Hops != 2 {
			t.Errorf("node 3 delivery %d = %+v", i, env)
		}
	}
	if len(recs[3].got) != 5 {
		t.Fatalf("node 3 got %d bounces, want 5", len(recs[3].got))
	}

	// Destination crashes while the flight is in the air; the next flight
	// (same record) must carry only its own envelope.
	if err := net.Send(0, 2, "doomed"); err != nil {
		t.Fatal(err)
	}
	net.Crash(2)
	sched.Run()
	freeListClean(t, net)
	net.Recover(2)
	// Injected drop: the flight lands, the envelope is discarded.
	net.SetDropProb(2, 1)
	if err := net.Send(0, 2, "dropped"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	freeListClean(t, net)
	net.SetDropProb(2, 0)
	if err := net.SendDirect(1, 2, "kept"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	freeListClean(t, net)
	if got := recs[2].got; len(got) != 1 || got[0].Payload != "kept" || got[0].From != 1 || got[0].Hops != 1 {
		t.Errorf("node 2 got %+v, want only the direct \"kept\" envelope", got)
	}
	if d, x := net.Stats().Get("dropped_dest_down"), net.Stats().Get("dropped_injected"); d != 1 || x != 1 {
		t.Errorf("dropped_dest_down %d, dropped_injected %d, want 1 and 1", d, x)
	}

	// Many in the air at once: each needs its own flight, all come back clean.
	for i := 0; i < 32; i++ {
		if err := net.Send(0, 3, i); err != nil {
			t.Fatal(err)
		}
	}
	recs[3].got = nil
	sched.Run()
	freeListClean(t, net)
	for i, env := range recs[3].got {
		if env.Payload != i {
			t.Fatalf("concurrent flight %d delivered payload %v", i, env.Payload)
		}
	}
	if len(net.free) != 32 {
		t.Errorf("free list holds %d flights after 32 concurrent sends, want 32", len(net.free))
	}
}

// Allocation budget (aim 1): a message in transit costs nothing beyond the
// payload its caller boxed — none for a pointer, one for a struct.
func TestSendAllocs(t *testing.T) {
	sched, net, _ := randomNet(t, 5, 12, 6)
	for i := 0; i < 12; i++ {
		net.handlers[graph.NodeID(i)] = HandlerFunc(func(Envelope) {})
	}
	type body struct{ a, b, c int }
	ptr := &body{1, 2, 3}
	warm := func(payload any) {
		for i := 0; i < 12; i++ {
			if err := net.Send(graph.NodeID(i), graph.NodeID((i+5)%12), payload); err != nil {
				t.Fatal(err)
			}
		}
		sched.Run()
	}
	warm(ptr) // routes cached, flights pooled, counters registered
	nb := net.Topology().Neighbors(2)[0]
	if n := testing.AllocsPerRun(100, func() {
		_ = net.Send(2, 7, ptr)
		_ = net.SendDirect(2, nb, ptr)
		sched.Run()
	}); n != 0 {
		t.Errorf("Send+SendDirect+deliver of a pointer payload allocates %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = net.Send(2, 7, body{4, 5, 6})
		sched.Run()
	}); n > 1 {
		t.Errorf("Send+deliver of a boxed struct allocates %v, want ≤ 1 (the box)", n)
	}
}

// BenchmarkSend is the netsim layer bench: route, post, land and hand one
// pointer payload to a no-op handler, routes warm.
func BenchmarkSend(b *testing.B) {
	sched, net, _ := randomNet(b, 5, 64, 64)
	for i := 0; i < 64; i++ {
		net.handlers[graph.NodeID(i)] = HandlerFunc(func(Envelope) {})
	}
	payload := &struct{ n int }{1}
	for i := 0; i < 64; i++ {
		_ = net.Send(graph.NodeID(i), graph.NodeID((i+17)%64), payload)
	}
	sched.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Send(graph.NodeID(i%64), graph.NodeID((i+17)%64), payload)
		sched.Step()
	}
}
