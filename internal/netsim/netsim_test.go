package netsim

import (
	"errors"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sim"
)

// lineNet builds a 4-node line 0-1-2-3 with unit weights and a recording
// handler on every node.
func lineNet(t *testing.T) (*sim.Scheduler, *Network, map[graph.NodeID]*recorder) {
	t.Helper()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Kind: graph.KindRouter})
	}
	for i := 0; i < 3; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	sched := sim.New(1)
	net := New(sched, g)
	recs := make(map[graph.NodeID]*recorder)
	for i := 0; i < 4; i++ {
		r := &recorder{}
		recs[graph.NodeID(i)] = r
		net.MustRegister(graph.NodeID(i), r)
	}
	return sched, net, recs
}

type recorder struct {
	got        []Envelope
	recoveries []sim.Time
	crashes    []sim.Time
}

func (r *recorder) Receive(env Envelope)  { r.got = append(r.got, env) }
func (r *recorder) Recovered(at sim.Time) { r.recoveries = append(r.recoveries, at) }
func (r *recorder) Crashed(at sim.Time)   { r.crashes = append(r.crashes, at) }

func TestSendDelayMatchesPathCost(t *testing.T) {
	sched, net, recs := lineNet(t)
	if err := net.Send(0, 3, "hello"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	got := recs[3].got
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	env := got[0]
	if env.Payload != "hello" || env.From != 0 || env.To != 3 {
		t.Errorf("envelope = %+v", env)
	}
	if env.Hops != 3 || env.Cost != 3 {
		t.Errorf("hops/cost = %d/%v, want 3/3", env.Hops, env.Cost)
	}
	if sched.Now() != 3*sim.Unit {
		t.Errorf("delivery time %v, want %v", sched.Now(), 3*sim.Unit)
	}
}

func TestSendToSelfIsImmediate(t *testing.T) {
	sched, net, recs := lineNet(t)
	if err := net.Send(2, 2, "self"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recs[2].got) != 1 || sched.Now() != 0 {
		t.Errorf("self-send: %d msgs at %v", len(recs[2].got), sched.Now())
	}
}

func TestSendErrors(t *testing.T) {
	_, net, _ := lineNet(t)
	if err := net.Send(99, 0, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender err = %v", err)
	}
	if err := net.Send(0, 99, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dest err = %v", err)
	}
	net.Crash(0)
	if err := net.Send(0, 1, nil); !errors.Is(err, ErrSenderDown) {
		t.Errorf("down sender err = %v", err)
	}
}

func TestNoRoute(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2})
	sched := sim.New(1)
	net := New(sched, g)
	net.MustRegister(1, &recorder{})
	net.MustRegister(2, &recorder{})
	if err := net.Send(1, 2, nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
	if _, err := net.Cost(1, 2); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Cost err = %v, want ErrNoRoute", err)
	}
}

func TestFIFOPerRoute(t *testing.T) {
	sched, net, recs := lineNet(t)
	for i := 0; i < 5; i++ {
		if err := net.Send(0, 3, i); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(sim.Unit / 10)
	}
	sched.Run()
	got := recs[3].got
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, env := range got {
		if env.Payload != i {
			t.Fatalf("out-of-order delivery: position %d has payload %v", i, env.Payload)
		}
	}
}

func TestCrashDropsInFlight(t *testing.T) {
	sched, net, recs := lineNet(t)
	if err := net.Send(0, 3, "doomed"); err != nil {
		t.Fatal(err)
	}
	net.Crash(3)
	sched.Run()
	if len(recs[3].got) != 0 {
		t.Error("crashed node received a message")
	}
	if net.Stats().Get("dropped_dest_down") != 1 {
		t.Errorf("dropped_dest_down = %d, want 1", net.Stats().Get("dropped_dest_down"))
	}
	if len(recs[3].crashes) != 1 {
		t.Errorf("crash callback fired %d times, want 1", len(recs[3].crashes))
	}
}

func TestRecoverUpdatesLastStart(t *testing.T) {
	sched, net, recs := lineNet(t)
	t0, ok := net.LastStart(2)
	if !ok || t0 != 0 {
		t.Fatalf("initial LastStart = %v, %v", t0, ok)
	}
	sched.RunUntil(50)
	net.Crash(2)
	if net.IsUp(2) {
		t.Error("crashed node reported up")
	}
	sched.RunUntil(80)
	net.Recover(2)
	if !net.IsUp(2) {
		t.Error("recovered node reported down")
	}
	ls, _ := net.LastStart(2)
	if ls != 80 {
		t.Errorf("LastStart after recovery = %v, want 80", ls)
	}
	if len(recs[2].recoveries) != 1 || recs[2].recoveries[0] != 80 {
		t.Errorf("recovery callback = %v", recs[2].recoveries)
	}
	// Idempotence.
	net.Recover(2)
	net.Crash(99) // unknown: no-op
	if len(recs[2].recoveries) != 1 {
		t.Error("double Recover fired callback twice")
	}
	if _, ok := net.LastStart(99); ok {
		t.Error("LastStart for unregistered node reported ok")
	}
}

func TestCrashRecoverRoundTripDelivery(t *testing.T) {
	sched, net, recs := lineNet(t)
	net.Crash(3)
	_ = net.Send(0, 3, "lost")
	sched.Run()
	net.Recover(3)
	if err := net.Send(0, 3, "kept"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recs[3].got) != 1 || recs[3].got[0].Payload != "kept" {
		t.Errorf("after recovery got %v", recs[3].got)
	}
}

func TestSendDirect(t *testing.T) {
	sched, net, recs := lineNet(t)
	if err := net.SendDirect(1, 2, "edge"); err != nil {
		t.Fatal(err)
	}
	if err := net.SendDirect(0, 3, "far"); !errors.Is(err, ErrNotNeighbors) {
		t.Errorf("non-adjacent SendDirect err = %v", err)
	}
	if err := net.SendDirect(99, 0, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown SendDirect err = %v", err)
	}
	sched.Run()
	if len(recs[2].got) != 1 || recs[2].got[0].Hops != 1 {
		t.Errorf("SendDirect delivery = %v", recs[2].got)
	}
}

func TestFailLinkReroutes(t *testing.T) {
	// Square: 0-1, 1-3, 0-2, 2-3; direct route 0-1-3 (cost 2), detour 0-2-3
	// (cost 4).
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i)})
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(2, 3, 2)
	sched := sim.New(1)
	net := New(sched, g)
	for i := 0; i < 4; i++ {
		net.MustRegister(graph.NodeID(i), &recorder{})
	}
	c, err := net.Cost(0, 3)
	if err != nil || c != 2 {
		t.Fatalf("cost = %v, %v; want 2", c, err)
	}
	if err := net.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	c, err = net.Cost(0, 3)
	if err != nil || c != 4 {
		t.Fatalf("cost after link failure = %v, %v; want 4", c, err)
	}
	if err := net.RestoreLink(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	c, _ = net.Cost(0, 3)
	if c != 2 {
		t.Errorf("cost after restore = %v, want 2", c)
	}
	if err := net.FailLink(0, 3); err == nil {
		t.Error("failing a nonexistent link succeeded")
	}
}

func TestRegisterErrors(t *testing.T) {
	_, net, _ := lineNet(t)
	if err := net.Register(0, &recorder{}); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("duplicate register err = %v", err)
	}
	if err := net.Register(99, &recorder{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown register err = %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	sched, net, _ := lineNet(t)
	_ = net.Send(0, 1, "a")
	_ = net.Send(0, 2, "b")
	sched.Run()
	if net.Stats().Get("delivered") != 2 {
		t.Errorf("delivered = %d, want 2", net.Stats().Get("delivered"))
	}
	if net.Stats().Get("hops") != 3 {
		t.Errorf("hops = %d, want 3", net.Stats().Get("hops"))
	}
}

func TestHandlerFuncAndAccessors(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2})
	g.MustAddEdge(1, 2, 1)
	sched := sim.New(1)
	net := New(sched, g)
	if net.Scheduler() != sched {
		t.Error("Scheduler accessor wrong")
	}
	if net.Topology().NumNodes() != 2 {
		t.Error("Topology accessor wrong")
	}
	got := 0
	net.MustRegister(1, HandlerFunc(func(Envelope) { got++ }))
	net.MustRegister(2, HandlerFunc(func(Envelope) {}))
	if err := net.Send(2, 1, "x"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 1 {
		t.Errorf("HandlerFunc received %d", got)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister on unknown node did not panic")
		}
	}()
	g := graph.New()
	net := New(sim.New(1), g)
	net.MustRegister(42, HandlerFunc(func(Envelope) {}))
}

func TestCrashUnregisteredNoop(t *testing.T) {
	_, net, _ := lineNet(t)
	net.Crash(99) // unregistered: must not panic or mark down
	if net.IsUp(99) {
		t.Error("unregistered node reported up")
	}
}

func TestDeliverToUnregisteredCounted(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1})
	g.MustAddNode(graph.Node{ID: 2}) // no handler
	g.MustAddEdge(1, 2, 1)
	sched := sim.New(1)
	net := New(sched, g)
	net.MustRegister(1, HandlerFunc(func(Envelope) {}))
	if err := net.Send(1, 2, "void"); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if net.Stats().Get("dropped_no_handler") != 1 {
		t.Errorf("dropped_no_handler = %d", net.Stats().Get("dropped_no_handler"))
	}
}

func TestRestoreLinkBadArgs(t *testing.T) {
	_, net, _ := lineNet(t)
	if err := net.RestoreLink(0, 1, 1); err == nil {
		t.Error("restoring an existing link succeeded")
	}
	if err := net.RestoreLink(0, 0, 1); err == nil {
		t.Error("self-loop restore succeeded")
	}
}

func TestCostUnknownSource(t *testing.T) {
	_, net, _ := lineNet(t)
	if _, err := net.Cost(99, 0); err == nil {
		t.Error("Cost from unknown node succeeded")
	}
}

// Property: between any fixed pair of nodes, messages arrive in the order
// they were sent — the in-sequence guarantee the GHS algorithm requires —
// under random send schedules.
func TestPropertyPerPairFIFO(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := graph.New()
		for i := 0; i < 3; i++ {
			g.MustAddNode(graph.Node{ID: graph.NodeID(i)})
		}
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(1, 2, 2)
		sched := sim.New(seed)
		net := New(sched, g)
		var got []int
		net.MustRegister(0, HandlerFunc(func(Envelope) {}))
		net.MustRegister(1, HandlerFunc(func(Envelope) {}))
		net.MustRegister(2, HandlerFunc(func(env Envelope) {
			got = append(got, env.Payload.(int))
		}))
		n := 20
		for i := 0; i < n; i++ {
			if err := net.Send(0, 2, i); err != nil {
				t.Fatal(err)
			}
			sched.RunFor(sim.Time(sched.Rand().Intn(2000)))
		}
		sched.Run()
		if len(got) != n {
			t.Fatalf("seed %d: delivered %d of %d", seed, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("seed %d: out of order at %d: %v", seed, i, got)
			}
		}
	}
}
