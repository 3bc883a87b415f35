package graph

import (
	"fmt"
	"math/rand"
)

// Example bundles a topology with the mail-system roles and user population
// that the paper's worked examples attach to it.
type Example struct {
	G       *Graph
	Hosts   []NodeID       // host nodes, in presentation order (H1, H2, ...)
	Servers []NodeID       // server nodes, in presentation order (S1, S2, ...)
	Users   map[NodeID]int // users homed on each host (N_i in §3.1.1)
}

// TotalUsers reports the user population of the example.
func (e Example) TotalUsers() int {
	total := 0
	for _, n := range e.Users {
		total += n
	}
	return total
}

// Node IDs used by the paper-example generators. Hosts are numbered from
// HostBase+1, servers from ServerBase+1, so H2 is HostBase+2 and S3 is
// ServerBase+3.
const (
	HostBase   NodeID = 0
	ServerBase NodeID = 100
)

// Figure1 reconstructs the topology and user distribution of the paper's
// Figure 1 (§3.1.1): servers S1, S2, S3 in one region, hosts H1..H6, every
// link with an average communication time of one time unit. The figure
// itself is a scan-degraded drawing; this reconstruction preserves every
// constraint the prose states:
//
//   - all links cost 1 unit;
//   - the shortest one-way path H2→S1 is 2 units (so H2 reaches S1 through
//     another node);
//   - the nearest-server initialization of Table 1 assigns H1,H3→S1,
//     H2,H4,H5→S2, H6→S3 with loads 50/60/50/50/40/20.
func Figure1() Example {
	g := New()
	const region = "R1"
	users := map[NodeID]int{
		HostBase + 1: 50,
		HostBase + 2: 60,
		HostBase + 3: 50,
		HostBase + 4: 50,
		HostBase + 5: 40,
		HostBase + 6: 20,
	}
	var hosts []NodeID
	for i := 1; i <= 6; i++ {
		id := HostBase + NodeID(i)
		g.MustAddNode(Node{ID: id, Label: fmt.Sprintf("H%d", i), Region: region, Kind: KindHost})
		hosts = append(hosts, id)
	}
	var servers []NodeID
	for j := 1; j <= 3; j++ {
		id := ServerBase + NodeID(j)
		g.MustAddNode(Node{ID: id, Label: fmt.Sprintf("S%d", j), Region: region, Kind: KindServer})
		servers = append(servers, id)
	}
	s1, s2, s3 := servers[0], servers[1], servers[2]
	// Hosts attach to their nearest server; servers form a chain, so H2's
	// shortest path to S1 is H2-S2-S1 = 2 units as the prose requires.
	g.MustAddEdge(hosts[0], s1, 1)
	g.MustAddEdge(hosts[2], s1, 1)
	g.MustAddEdge(hosts[1], s2, 1)
	g.MustAddEdge(hosts[3], s2, 1)
	g.MustAddEdge(hosts[4], s2, 1)
	g.MustAddEdge(hosts[5], s3, 1)
	g.MustAddEdge(s1, s2, 1)
	g.MustAddEdge(s2, s3, 1)
	return Example{G: g, Hosts: hosts, Servers: servers, Users: users}
}

// Table3Variant reconstructs the skewed scenario of the paper's Table 3:
// three hosts with 100, 100 and 20 users, each adjacent to its own server
// (H1→S1, H2→S2, H3→S3), servers chained with unit links.
func Table3Variant() Example {
	g := New()
	const region = "R1"
	users := map[NodeID]int{
		HostBase + 1: 100,
		HostBase + 2: 100,
		HostBase + 3: 20,
	}
	var hosts, servers []NodeID
	for i := 1; i <= 3; i++ {
		h := HostBase + NodeID(i)
		s := ServerBase + NodeID(i)
		g.MustAddNode(Node{ID: h, Label: fmt.Sprintf("H%d", i), Region: region, Kind: KindHost})
		g.MustAddNode(Node{ID: s, Label: fmt.Sprintf("S%d", i), Region: region, Kind: KindServer})
		hosts = append(hosts, h)
		servers = append(servers, s)
	}
	for i := 0; i < 3; i++ {
		g.MustAddEdge(hosts[i], servers[i], 1)
	}
	g.MustAddEdge(servers[0], servers[1], 1)
	g.MustAddEdge(servers[1], servers[2], 1)
	return Example{G: g, Hosts: hosts, Servers: servers, Users: users}
}

// RandomConnected generates a connected graph with n nodes: a random
// spanning tree plus extra random edges. Edge weights are distinct (a random
// permutation of 1..numEdges scaled by weightScale), which the distributed
// GHS MST algorithm requires for the MST to be unique [GAL83].
func RandomConnected(rng *rand.Rand, n, extraEdges int, weightScale float64) *Graph {
	if n <= 0 {
		return New()
	}
	if weightScale <= 0 {
		weightScale = 1
	}
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(Node{ID: NodeID(i), Label: fmt.Sprintf("n%d", i), Kind: KindRouter})
	}
	type pair struct{ a, b NodeID }
	var chosen []pair
	seen := make(map[pair]bool)
	addPair := func(a, b NodeID) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if seen[p] {
			return false
		}
		seen[p] = true
		chosen = append(chosen, p)
		return true
	}
	// Random spanning tree: attach each new node to a uniformly random
	// earlier node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := NodeID(perm[i])
		b := NodeID(perm[rng.Intn(i)])
		addPair(a, b)
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extraEdges > maxExtra {
		extraEdges = maxExtra
	}
	for added := 0; added < extraEdges; {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if addPair(a, b) {
			added++
		}
	}
	// Distinct weights: a shuffled 1..m ramp.
	weights := rng.Perm(len(chosen))
	for i, p := range chosen {
		g.MustAddEdge(p.a, p.b, float64(weights[i]+1)*weightScale)
	}
	return g
}

// MultiRegionSpec configures MultiRegion.
type MultiRegionSpec struct {
	Regions        int // number of regions (≥ 1)
	NodesPerRegion int // nodes inside each region (≥ 1)
	ExtraIntra     int // extra intra-region edges beyond the spanning tree
	InterLinks     int // inter-region links per adjacent region pair (≥ 1)
}

// MultiRegion generates the internetwork shape of Figure 2: several regions,
// each internally connected, joined by inter-region links between border
// nodes. Region r gets nodes labelled "R<r>/n<i>" with region tag "R<r>".
// Regions are joined in a ring (plus the requested extra inter-links),
// so the whole graph is connected. All edge weights are distinct: a
// permutation of 1..E.
func MultiRegion(rng *rand.Rand, spec MultiRegionSpec) *Graph {
	if spec.Regions < 1 || spec.NodesPerRegion < 1 {
		return New()
	}
	if spec.InterLinks < 1 {
		spec.InterLinks = 1
	}
	g := New()
	nodeID := func(region, i int) NodeID {
		return NodeID(region*1000 + i)
	}
	for r := 0; r < spec.Regions; r++ {
		regionName := fmt.Sprintf("R%d", r+1)
		for i := 0; i < spec.NodesPerRegion; i++ {
			g.MustAddNode(Node{
				ID:     nodeID(r, i),
				Label:  fmt.Sprintf("%s/n%d", regionName, i),
				Region: regionName,
				Kind:   KindRouter,
			})
		}
	}
	type pair struct{ a, b NodeID }
	var chosen []pair
	seen := make(map[pair]bool)
	addPair := func(a, b NodeID) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if seen[p] {
			return false
		}
		seen[p] = true
		chosen = append(chosen, p)
		return true
	}
	for r := 0; r < spec.Regions; r++ {
		// Intra-region random spanning tree.
		perm := rng.Perm(spec.NodesPerRegion)
		for i := 1; i < spec.NodesPerRegion; i++ {
			addPair(nodeID(r, perm[i]), nodeID(r, perm[rng.Intn(i)]))
		}
		n := spec.NodesPerRegion
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := spec.ExtraIntra
		if extra > maxExtra {
			extra = maxExtra
		}
		for added := 0; added < extra; {
			if addPair(nodeID(r, rng.Intn(n)), nodeID(r, rng.Intn(n))) {
				added++
			}
		}
	}
	if spec.Regions > 1 {
		for r := 0; r < spec.Regions; r++ {
			next := (r + 1) % spec.Regions
			if spec.Regions == 2 && r == 1 {
				break // avoid doubling the single pair in a 2-region ring
			}
			for added := 0; added < spec.InterLinks; {
				a := nodeID(r, rng.Intn(spec.NodesPerRegion))
				b := nodeID(next, rng.Intn(spec.NodesPerRegion))
				if addPair(a, b) {
					added++
				}
			}
		}
	}
	weights := rng.Perm(len(chosen))
	for i, p := range chosen {
		g.MustAddEdge(p.a, p.b, float64(weights[i]+1))
	}
	return g
}

// Grid generates a rows×cols grid with unit weights plus a small
// deterministic weight perturbation so all weights are distinct.
func Grid(rows, cols int) *Graph {
	g := New()
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddNode(Node{ID: id(r, c), Label: fmt.Sprintf("g%d_%d", r, c), Kind: KindRouter})
		}
	}
	eps := 0
	add := func(a, b NodeID) {
		eps++
		g.MustAddEdge(a, b, 1+float64(eps)/1e6)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				add(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}
