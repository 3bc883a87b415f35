package faults_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

const chaosTick = 10 * sim.Unit

// chaosSimWorld builds a dense single-region world: 4 hosts x 3 servers,
// every host linked to every server, servers fully meshed, 3 users per
// host. Density matters for the no-loss argument: the router finds a path
// around any partial link failure, so a server only becomes unreachable
// when all its own links are down — and restoring any of them stamps its
// LastStartTime, which forces agents to walk past it on the next GetMail.
func chaosSimWorld(t *testing.T, seed int64) (*core.SyntaxSystem, map[string]graph.NodeID) {
	t.Helper()
	g := graph.New()
	nodes := make(map[string]graph.NodeID)
	users := make(map[graph.NodeID][]string)
	for i := 1; i <= 4; i++ {
		id := graph.HostBase + graph.NodeID(i)
		name := fmt.Sprintf("h%d", i)
		g.MustAddNode(graph.Node{ID: id, Label: name, Region: "R1", Kind: graph.KindHost})
		nodes[name] = id
		for u := 0; u < 3; u++ {
			users[id] = append(users[id], fmt.Sprintf("u%d_%d", i, u))
		}
	}
	for j := 1; j <= 3; j++ {
		id := graph.ServerBase + graph.NodeID(j)
		name := fmt.Sprintf("s%d", j)
		g.MustAddNode(graph.Node{ID: id, Label: name, Region: "R1", Kind: graph.KindServer})
		nodes[name] = id
	}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 3; j++ {
			g.MustAddEdge(graph.HostBase+graph.NodeID(i), graph.ServerBase+graph.NodeID(j), 1)
		}
	}
	g.MustAddEdge(graph.ServerBase+1, graph.ServerBase+2, 1)
	g.MustAddEdge(graph.ServerBase+2, graph.ServerBase+3, 1)
	g.MustAddEdge(graph.ServerBase+1, graph.ServerBase+3, 1)

	sys, err := core.NewSyntax(core.SyntaxConfig{
		Topology: g, UsersPerHost: users, AuthorityLen: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, nodes
}

// chaosSimSpec asks for 26 crash/recover + link fail/restore events plus
// latency and drop windows — past the >=20 bar the harness is specified
// against. Drops target hosts only: on the simulator a host-bound drop can
// only eat a SubmitAck or Notify (conservative accounting), while a
// server-bound drop could silently skip a live, stable authority server
// and genuinely strand mail beyond the GetMail walk.
func chaosSimSpec(seed int64) faults.Spec {
	return faults.Spec{
		Seed:    seed,
		Ticks:   120,
		Servers: []string{"s1", "s2", "s3"},
		Links: [][2]string{
			{"s1", "s2"}, {"s2", "s3"}, {"s1", "s3"},
			{"h1", "s1"}, {"h2", "s2"}, {"h3", "s3"}, {"h4", "s1"},
		},
		DropTargets: []string{"h1", "h2", "h3", "h4"},
		Crashes:     7,
		LinkFaults:  6,
		Latencies:   3,
		Drops:       4,
	}
}

func faultEventCount(sched faults.Schedule) int {
	n := 0
	for _, e := range sched.Events {
		switch e.Kind {
		case faults.Crash, faults.Recover, faults.LinkFail, faults.LinkRestore:
			n++
		}
	}
	return n
}

func runSimSoak(t *testing.T, seed int64) faults.SoakResult {
	t.Helper()
	sys, nodes := chaosSimWorld(t, seed)
	sched, err := faults.Compile(chaosSimSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	if n := faultEventCount(sched); n < 20 {
		t.Fatalf("schedule has %d crash/link events, want >= 20", n)
	}
	inj := faults.NewSimTarget(sys.Net, nodes, chaosTick)
	res, err := faults.Soak(faults.NewSimSystem(sys, chaosTick), inj, sched, faults.SoakConfig{
		Messages: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosSoakSim is the headline robustness check on the simulator: 600
// messages submitted while servers crash, links fail, latency spikes and
// acks are dropped; every committed message must be retrieved exactly once.
func TestChaosSoakSim(t *testing.T) {
	res := runSimSoak(t, 42)
	t.Log(res.String())
	if res.Submitted < 500 {
		t.Fatalf("submitted %d, want >= 500", res.Submitted)
	}
	if !res.Ok() {
		t.Fatalf("invariant violated: lost=%v duplicates=%v tracegaps=%v",
			res.Lost, res.Duplicates, res.TraceGaps)
	}
	if res.Committed < res.Submitted/2 {
		t.Errorf("only %d/%d committed — fault load too heavy to be meaningful", res.Committed, res.Submitted)
	}
	if res.Received < res.Committed {
		t.Errorf("received %d < committed %d", res.Received, res.Committed)
	}
}

// TestChaosSoakSimTraceAudit re-runs the sim soak and checks the audit has
// teeth: the tracer actually recorded span chains (at least one per
// committed message) and every committed chain is complete. A tracing
// regression that silently stopped stamping would fail here, not just show
// an empty TraceGaps.
func TestChaosSoakSimTraceAudit(t *testing.T) {
	sys, nodes := chaosSimWorld(t, 42)
	sched, err := faults.Compile(chaosSimSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewSimTarget(sys.Net, nodes, chaosTick)
	res, err := faults.Soak(faults.NewSimSystem(sys, chaosTick), inj, sched, faults.SoakConfig{
		Messages: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceGaps) != 0 {
		t.Fatalf("%d committed messages have incomplete span chains: %v",
			len(res.TraceGaps), res.TraceGaps)
	}
	if n := sys.Tracer().Len(); n < res.Committed {
		t.Errorf("tracer holds %d traces, want >= %d committed", n, res.Committed)
	}
	// The per-stage histograms were fed from the same registry the tracer
	// writes to — retrieval closed lat_e2e for every delivered message.
	hs := sys.Obs().Histogram("lat_e2e", nil).Snapshot()
	if hs.Count == 0 {
		t.Fatal("lat_e2e histogram empty after a full soak")
	}
	if hs.P50 <= 0 || hs.P95 < hs.P50 || hs.P99 < hs.P95 {
		t.Errorf("implausible quantiles: %+v", hs)
	}
}

// TestChaosSoakSimDeterministic replays the same spec on a fresh world and
// requires a byte-identical ledger: same submissions, same commits, same
// fault events, same outcome.
func TestChaosSoakSimDeterministic(t *testing.T) {
	a := runSimSoak(t, 42)
	b := runSimSoak(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different runs:\n  a=%v\n  b=%v", a, b)
	}
}

// TestChaosSoakSimSeeds runs a few more seeds so the invariant is not an
// artifact of one lucky schedule.
func TestChaosSoakSimSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed soak skipped in -short")
	}
	for _, seed := range []int64{1, 9, 2026} {
		res := runSimSoak(t, seed)
		if !res.Ok() {
			t.Errorf("seed %d: lost=%v duplicates=%v", seed, res.Lost, res.Duplicates)
		}
	}
}

// TestChaosSoakLive runs the same harness against the live goroutine
// cluster: real time, real concurrency, the spool doing the redelivery
// work. A nil Submit error is the commit point (deposited or spooled); the
// soak then requires exactly-once retrieval.
func TestChaosSoakLive(t *testing.T) {
	c := livenet.NewCluster()
	defer c.Close()
	for _, n := range []string{"s1", "s2", "s3"} {
		if _, err := c.AddServer(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnableSpool(livenet.SpoolConfig{
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  20 * time.Millisecond,
		Seed:      7,
	}); err != nil {
		t.Fatal(err)
	}
	rotations := [][]string{
		{"s1", "s2", "s3"}, {"s2", "s3", "s1"}, {"s3", "s1", "s2"},
	}
	sys := faults.NewLiveSystem(c, time.Millisecond)
	for i := 0; i < 6; i++ {
		u := names.MustParse(fmt.Sprintf("R1.h%d.user%d", i%3+1, i))
		c.Directory().SetAuthority(u, rotations[i%len(rotations)])
		if err := sys.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}

	sched, err := faults.Compile(faults.Spec{
		Seed:    42,
		Ticks:   120,
		Servers: []string{"s1", "s2", "s3"},
		Links: [][2]string{
			{"net", "s1"}, {"net", "s2"}, {"net", "s3"},
		},
		DropTargets:   []string{"s1", "s2", "s3"},
		Crashes:       7,
		LinkFaults:    6,
		Latencies:     2,
		Drops:         4,
		MaxDelayTicks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := faultEventCount(sched); n < 20 {
		t.Fatalf("schedule has %d crash/link events, want >= 20", n)
	}
	res, err := faults.Soak(sys, faults.NewLiveTarget(c, time.Millisecond), sched, faults.SoakConfig{
		Messages: 520,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if res.Submitted < 500 {
		t.Fatalf("submitted %d, want >= 500", res.Submitted)
	}
	if !res.Ok() {
		t.Fatalf("invariant violated: lost=%v duplicates=%v tracegaps=%v",
			res.Lost, res.Duplicates, res.TraceGaps)
	}
	if res.Committed < res.Submitted/2 {
		t.Errorf("only %d/%d committed", res.Committed, res.Submitted)
	}
	// The trace audit ran against real spans: the cluster's tracer stamped
	// every committed message even across crash/recover windows, and the
	// same registry carries the per-stage latency distributions.
	if n := c.Tracer().Len(); n < res.Committed {
		t.Errorf("tracer holds %d traces, want >= %d committed", n, res.Committed)
	}
	if hs := c.Obs().Histogram("lat_e2e", nil).Snapshot(); hs.Count == 0 {
		t.Error("lat_e2e histogram empty after live soak")
	}
	m := c.Metrics()
	if m["spool_redelivered"] == 0 && m["deposit_failovers"] == 0 {
		t.Log("note: schedule exercised neither spool nor failover paths")
	}
}
