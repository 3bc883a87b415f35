package assign

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/queueing"
)

// figure1Config builds the paper's §3.1.1 worked example: Figure 1 topology,
// W1=4, W2=1, z=0.5, M_j=100.
func figure1Config() (Config, graph.Example) {
	ex := graph.Figure1()
	commW, procW, procTime := PaperWeights()
	maxLoad := make(map[graph.NodeID]int)
	for _, s := range ex.Servers {
		maxLoad[s] = 100
	}
	return Config{
		Topology: ex.G,
		Hosts:    ex.Hosts,
		Servers:  ex.Servers,
		Users:    ex.Users,
		MaxLoad:  maxLoad,
		ProcTime: procTime,
		CommW:    commW,
		ProcW:    procW,
	}, ex
}

func table3Config() (Config, graph.Example) {
	ex := graph.Table3Variant()
	commW, procW, procTime := PaperWeights()
	maxLoad := make(map[graph.NodeID]int)
	for _, s := range ex.Servers {
		maxLoad[s] = 100
	}
	return Config{
		Topology: ex.G,
		Hosts:    ex.Hosts,
		Servers:  ex.Servers,
		Users:    ex.Users,
		MaxLoad:  maxLoad,
		ProcTime: procTime,
		CommW:    commW,
		ProcW:    procW,
	}, ex
}

func totalAssigned(a *Assignment, servers []graph.NodeID) int {
	total := 0
	for _, s := range servers {
		total += a.Load(s)
	}
	return total
}

func TestValidation(t *testing.T) {
	cfg, _ := figure1Config()
	good := cfg

	cfg = good
	cfg.Servers = nil
	if _, err := New(cfg); !errors.Is(err, ErrNoServers) {
		t.Errorf("no servers: err = %v", err)
	}

	cfg = good
	cfg.Hosts = nil
	if _, err := New(cfg); !errors.Is(err, ErrNoHosts) {
		t.Errorf("no hosts: err = %v", err)
	}

	cfg = good
	cfg.Topology = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil topology accepted")
	}

	cfg = good
	cfg.Hosts = append([]graph.NodeID{999}, good.Hosts...)
	if _, err := New(cfg); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown host: err = %v", err)
	}

	cfg = good
	cfg.Servers = append([]graph.NodeID{999}, good.Servers...)
	if _, err := New(cfg); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown server: err = %v", err)
	}

	cfg = good
	cfg.Users = map[graph.NodeID]int{good.Hosts[0]: -1}
	if _, err := New(cfg); !errors.Is(err, ErrNegativeUsers) {
		t.Errorf("negative users: err = %v", err)
	}
}

func TestUnreachableHost(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1, Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: 2, Kind: graph.KindServer})
	// no edge: host 1 cannot reach server 2
	cfg := Config{
		Topology: g,
		Hosts:    []graph.NodeID{1},
		Servers:  []graph.NodeID{2},
		Users:    map[graph.NodeID]int{1: 5},
		MaxLoad:  map[graph.NodeID]int{2: 10},
		CommW:    1, ProcW: 1,
	}
	if _, err := New(cfg); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

// Table 1: the initialization step must reproduce the paper's nearest-server
// assignment exactly: H1,H3→S1 (load 100), H2,H4,H5→S2 (load 150), H6→S3
// (load 20).
func TestTable1Initialization(t *testing.T) {
	cfg, ex := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Initialize()
	wantServer := []int{0, 1, 0, 1, 1, 2}
	for hi, h := range ex.Hosts {
		s := ex.Servers[wantServer[hi]]
		if got := a.Assigned(h, s); got != ex.Users[h] {
			t.Errorf("H%d: assigned %d users to S%d, want %d", hi+1, got, wantServer[hi]+1, ex.Users[h])
		}
	}
	wantLoads := map[int]int{0: 100, 1: 150, 2: 20}
	for si, want := range wantLoads {
		if got := a.Load(ex.Servers[si]); got != want {
			t.Errorf("S%d load = %d, want %d", si+1, got, want)
		}
	}
	if totalAssigned(a, ex.Servers) != 270 {
		t.Error("initialization lost users")
	}
}

// Table 2: after balancing, no server may stay saturated, every user stays
// assigned, and the state is stable (a second Balance makes no moves).
func TestTable2Balancing(t *testing.T) {
	cfg, ex := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Initialize()
	costBefore := a.TotalCost()
	stats := a.Balance()
	if stats.Moves == 0 {
		t.Fatal("balancing the overloaded Table 1 state made no moves")
	}
	if len(stats.Overloaded) != 0 {
		t.Errorf("servers still overloaded: %v", stats.Overloaded)
	}
	if got := totalAssigned(a, ex.Servers); got != 270 {
		t.Errorf("total assigned = %d, want 270", got)
	}
	if u := a.MaxUtilization(); u >= queueing.UtilizationCutoff {
		t.Errorf("max utilisation %v still at/above saturation cutoff", u)
	}
	if after := a.TotalCost(); after >= costBefore {
		t.Errorf("total cost did not improve: %v → %v", costBefore, after)
	}
	// Paper prose: "users on one host may be assigned to different servers".
	split := false
	byHost := make(map[graph.NodeID]int)
	for _, r := range a.Rows() {
		byHost[r.Host]++
		if byHost[r.Host] > 1 {
			split = true
		}
	}
	if !split {
		t.Error("no host split across servers; the paper's example splits hosts")
	}
	// Stability: rebalancing a balanced state is a no-op.
	again := a.Balance()
	if again.Moves != 0 {
		t.Errorf("second Balance made %d moves, want 0", again.Moves)
	}
}

// Table 3: the skewed variant (100/100/20) saturates S1 and S2 at
// initialization; balancing must shed load onto S3.
func TestTable3Skewed(t *testing.T) {
	cfg, ex := table3Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Initialize()
	for si, want := range []int{100, 100, 20} {
		if got := a.Load(ex.Servers[si]); got != want {
			t.Errorf("initial S%d load = %d, want %d", si+1, got, want)
		}
	}
	stats := a.Balance()
	if len(stats.Overloaded) != 0 {
		t.Errorf("still overloaded: %v", stats.Overloaded)
	}
	if a.MaxUtilization() >= queueing.UtilizationCutoff {
		t.Errorf("max utilisation %v at/above cutoff after balancing", a.MaxUtilization())
	}
	if a.Load(ex.Servers[2]) <= 20 {
		t.Errorf("S3 load = %d; balancing should have shed load onto S3", a.Load(ex.Servers[2]))
	}
	if totalAssigned(a, ex.Servers) != 220 {
		t.Error("users lost during balancing")
	}
}

func TestRunPipeline(t *testing.T) {
	cfg, _ := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := a.Run()
	if stats.Moves == 0 || len(stats.Overloaded) != 0 {
		t.Errorf("Run stats = %+v", stats)
	}
}

// The accelerated variant ("the algorithm can be made much faster if in each
// iteration more than one user is moved") must reach a comparable state with
// fewer accepted moves.
func TestMoveBatchFaster(t *testing.T) {
	cfgBase, _ := figure1Config()
	base, err := New(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	sBase := base.Run()

	cfgBatch, _ := figure1Config()
	cfgBatch.MoveBatch = 10
	batch, err := New(cfgBatch)
	if err != nil {
		t.Fatal(err)
	}
	sBatch := batch.Run()

	if sBatch.Moves >= sBase.Moves {
		t.Errorf("batch moves %d not fewer than single moves %d", sBatch.Moves, sBase.Moves)
	}
	if len(sBatch.Overloaded) != 0 {
		t.Errorf("batch variant left overload: %v", sBatch.Overloaded)
	}
	if batch.MaxUtilization() >= queueing.UtilizationCutoff {
		t.Errorf("batch variant max utilisation %v", batch.MaxUtilization())
	}
}

func TestConnectionCostFormula(t *testing.T) {
	cfg, ex := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero load: TC = C·W1 + (0 + z)·W2.
	h1, s1 := ex.Hosts[0], ex.Servers[0]
	want := 1*4.0 + (0+0.5)*1
	if got := a.ConnectionCost(h1, s1); math.Abs(got-want) > 1e-12 {
		t.Errorf("TC(H1,S1) zero-load = %v, want %v", got, want)
	}
	// H2→S1 has C=2.
	want = 2*4.0 + 0.5
	if got := a.ConnectionCost(ex.Hosts[1], s1); math.Abs(got-want) > 1e-12 {
		t.Errorf("TC(H2,S1) zero-load = %v, want %v", got, want)
	}
	// Saturated server pays the penalty.
	a.Initialize() // S2 load 150 ⇒ ρ=1.5
	got := a.ConnectionCost(ex.Hosts[1], ex.Servers[1])
	if got < queueing.SaturationPenalty {
		t.Errorf("TC to saturated server = %v, want ≥ %v", got, queueing.SaturationPenalty)
	}
}

func TestAuthorityLists(t *testing.T) {
	cfg, ex := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Run()
	lists := a.AuthorityLists(2)
	for hi, h := range ex.Hosts {
		list := lists[h]
		if len(list) != 2 {
			t.Fatalf("H%d list length %d, want 2", hi+1, len(list))
		}
		if a.ConnectionCost(h, list[0]) > a.ConnectionCost(h, list[1]) {
			t.Errorf("H%d authority list not cost-ordered", hi+1)
		}
	}
	// listLen clamped to the number of servers.
	all := a.AuthorityLists(0)
	if len(all[ex.Hosts[0]]) != len(ex.Servers) {
		t.Errorf("listLen 0 should return all servers")
	}
}

func TestTableRendering(t *testing.T) {
	cfg, _ := figure1Config()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Initialize()
	tb := a.Table("Table 1")
	if len(tb.Rows()) != 6+3 { // six host rows + three totals
		t.Errorf("table rows = %d, want 9", len(tb.Rows()))
	}
	rows := tb.Rows()
	if rows[0][0] != "H1" || rows[0][1] != "S1" || rows[0][2] != "50" {
		t.Errorf("first row = %v", rows[0])
	}
}

func TestLoadsCopy(t *testing.T) {
	cfg, ex := figure1Config()
	a, _ := New(cfg)
	a.Initialize()
	loads := a.Loads()
	loads[ex.Servers[0]] = -1
	if a.Load(ex.Servers[0]) == -1 {
		t.Error("Loads() exposed internal map")
	}
}

// Property: on random multi-server topologies, Run preserves the user
// population, never drives loads negative, and ends stable.
func TestPropertyBalancePreservesUsers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := graph.RandomConnected(rng, n, n/2, 1)
		ids := g.NodeIDs()
		numServers := 2 + rng.Intn(3)
		servers := ids[:numServers]
		hosts := ids[numServers:]
		users := make(map[graph.NodeID]int)
		maxLoad := make(map[graph.NodeID]int)
		total := 0
		for _, h := range hosts {
			users[h] = rng.Intn(40)
			total += users[h]
		}
		for _, s := range servers {
			maxLoad[s] = total/numServers + 20
		}
		a, err := New(Config{
			Topology: g, Hosts: hosts, Servers: servers,
			Users: users, MaxLoad: maxLoad,
			ProcTime: 0.5, CommW: 4, ProcW: 1,
		})
		if err != nil {
			return false
		}
		a.Run()
		got := 0
		for _, s := range servers {
			if a.Load(s) < 0 {
				return false
			}
			got += a.Load(s)
		}
		if got != total {
			return false
		}
		// Stable: no further moves.
		return a.Balance().Moves == 0
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Balancing should beat the naive baselines on cost.
func TestBalanceBeatsBaselines(t *testing.T) {
	cfg, _ := figure1Config()

	balanced, _ := New(cfg)
	balanced.Run()

	nearest, _ := New(cfg)
	nearest.Initialize()

	random, _ := New(cfg)
	random.RandomAssign(rand.New(rand.NewSource(1)))

	if balanced.TotalCost() >= nearest.TotalCost() {
		t.Errorf("balanced cost %v not below nearest-only cost %v",
			balanced.TotalCost(), nearest.TotalCost())
	}
	if balanced.MaxUtilization() >= nearest.MaxUtilization() {
		t.Errorf("balanced max util %v not below nearest-only %v",
			balanced.MaxUtilization(), nearest.MaxUtilization())
	}
	if random.TotalCost() < balanced.TotalCost() {
		t.Errorf("random baseline cost %v beat balanced %v", random.TotalCost(), balanced.TotalCost())
	}
}

// §3.1.1's final modification: "include variable communication delays by
// having approximate queuing delays that is a function of the channel
// utilization". A congested link must repel the assignment.
func TestChannelUtilizationShiftsAssignment(t *testing.T) {
	// H1 sits between S1 (1 unit away) and S2 (2 units away). With the
	// H1-S1 channel heavily loaded, S2 becomes the cheaper choice.
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1, Label: "H1", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: 101, Label: "S1", Kind: graph.KindServer})
	g.MustAddNode(graph.Node{ID: 102, Label: "S2", Kind: graph.KindServer})
	g.MustAddEdge(1, 101, 1)
	g.MustAddEdge(1, 102, 2)
	base := Config{
		Topology: g,
		Hosts:    []graph.NodeID{1},
		Servers:  []graph.NodeID{101, 102},
		Users:    map[graph.NodeID]int{1: 10},
		MaxLoad:  map[graph.NodeID]int{101: 100, 102: 100},
		ProcTime: 0.5, CommW: 4, ProcW: 1,
	}

	light, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	light.Run()
	if light.Assigned(1, 101) != 10 {
		t.Fatalf("light load: users not on the nearer S1")
	}

	congested := base
	congested.ChannelUtil = func(a, b graph.NodeID) float64 {
		if (a == 1 && b == 101) || (a == 101 && b == 1) {
			return 0.8 // H1-S1 channel at 80%: factor 1+4 = 5 → cost 5
		}
		return 0
	}
	loaded, err := New(congested)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Run()
	if loaded.Assigned(1, 102) != 10 {
		t.Errorf("congested H1-S1: users stayed on S1 (C to S1 = %v, S2 = %v)",
			loaded.Comm(1, 101), loaded.Comm(1, 102))
	}
	if got := loaded.Comm(1, 101); math.Abs(got-5) > 1e-9 {
		t.Errorf("congested C(H1,S1) = %v, want 5", got)
	}
}

func TestChannelUtilSaturatedLinkStillFinite(t *testing.T) {
	g := graph.New()
	g.MustAddNode(graph.Node{ID: 1, Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: 2, Kind: graph.KindServer})
	g.MustAddEdge(1, 2, 1)
	cfg := Config{
		Topology: g, Hosts: []graph.NodeID{1}, Servers: []graph.NodeID{2},
		Users: map[graph.NodeID]int{1: 1}, MaxLoad: map[graph.NodeID]int{2: 10},
		CommW: 1, ProcW: 1,
		ChannelUtil: func(a, b graph.NodeID) float64 { return 1.5 }, // saturated
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Run()
	if a.Load(2) != 1 {
		t.Error("user unassigned under saturated channel")
	}
	// Saturated channels get the (finite) saturation penalty factor.
	if c := a.Comm(1, 2); !(c > 1e6) || math.IsInf(c, 0) {
		t.Errorf("saturated channel cost = %v", c)
	}
}

// RandomAssign discards the current assignment and distributes every host's
// users uniformly at random over the servers — the deliberately naive
// baseline the tests hold the balancer against.
func (a *Assignment) RandomAssign(rng *rand.Rand) {
	for j := range a.loads {
		a.loads[j] = 0
		a.sumNC[j] = 0
	}
	for hi := range a.users {
		row := a.users[hi]
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < a.cfg.Users[a.cfg.Hosts[hi]]; k++ {
			si := rng.Intn(len(a.cfg.Servers))
			row[si]++
			a.loads[si]++
			a.sumNC[si] += a.comm[hi][si]
		}
	}
}

// Assigned returns A[host][server], the users of host assigned to server.
func (a *Assignment) Assigned(host, server graph.NodeID) int {
	hi, ok1 := a.hostIdx[host]
	si, ok2 := a.serverIdx[server]
	if !ok1 || !ok2 {
		return 0
	}
	return a.users[hi][si]
}
