package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(Node{ID: NodeID(i), Kind: KindRouter})
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode(Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(Node{ID: 1}); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate AddNode err = %v, want ErrNodeExists", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: 1})
	g.MustAddNode(Node{ID: 2})
	cases := []struct {
		name    string
		a, b    NodeID
		w       float64
		wantErr error
	}{
		{"self loop", 1, 1, 1, ErrSelfLoop},
		{"zero weight", 1, 2, 0, ErrBadWeight},
		{"negative weight", 1, 2, -3, ErrBadWeight},
		{"inf weight", 1, 2, math.Inf(1), ErrBadWeight},
		{"nan weight", 1, 2, math.NaN(), ErrBadWeight},
		{"missing a", 9, 2, 1, ErrNodeNotFound},
		{"missing b", 1, 9, 1, ErrNodeNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := g.AddEdge(c.a, c.b, c.w); !errors.Is(err, c.wantErr) {
				t.Errorf("AddEdge(%d,%d,%v) err = %v, want %v", c.a, c.b, c.w, err, c.wantErr)
			}
		})
	}
	if err := g.AddEdge(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1, 5); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate edge err = %v, want ErrDuplicateEdge", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := line(3)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Weight(0, 1); ok {
		t.Error("edge 0-1 still present after RemoveEdge")
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrEdgeNotFound) {
		t.Errorf("double RemoveEdge err = %v, want ErrEdgeNotFound", err)
	}
}

func TestNodesEdgesSorted(t *testing.T) {
	g := New()
	for _, id := range []NodeID{5, 1, 3} {
		g.MustAddNode(Node{ID: id})
	}
	g.MustAddEdge(5, 1, 2)
	g.MustAddEdge(3, 1, 4)
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].ID <= nodes[i-1].ID {
			t.Fatalf("Nodes() not sorted: %v", nodes)
		}
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0].A != 1 || edges[0].B != 3 || edges[1].B != 5 {
		t.Errorf("Edges() = %v, want sorted normalized edges", edges)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges() = %d, want 2", g.NumEdges())
	}
}

func TestConnected(t *testing.T) {
	if !New().Connected() {
		t.Error("empty graph should be connected")
	}
	g := line(4)
	if !g.Connected() {
		t.Error("line should be connected")
	}
	g.MustAddNode(Node{ID: 99})
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
}

func TestShortestPathsLine(t *testing.T) {
	g := line(5)
	p, err := g.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if p.Dist[NodeID(i)] != float64(i) {
			t.Errorf("dist to %d = %v, want %d", i, p.Dist[NodeID(i)], i)
		}
	}
	path := p.PathTo(4)
	want := []NodeID{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("PathTo(4) = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathTo(4) = %v, want %v", path, want)
		}
	}
}

func TestShortestPathsPrefersCheaperLongerRoute(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.MustAddNode(Node{ID: NodeID(i)})
	}
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	p, err := g.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist[2] != 5 {
		t.Errorf("dist 0→2 = %v, want 5 (via node 1)", p.Dist[2])
	}
	if got := p.PathTo(2); len(got) != 3 || got[1] != 1 {
		t.Errorf("PathTo(2) = %v, want [0 1 2]", got)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := line(2)
	g.MustAddNode(Node{ID: 9})
	p, err := g.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Dist[9]; ok {
		t.Error("unreachable node has a distance")
	}
	if p.PathTo(9) != nil {
		t.Error("PathTo(unreachable) != nil")
	}
}

func TestShortestPathsUnknownSource(t *testing.T) {
	if _, err := line(2).ShortestPaths(42); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestKruskalEqualsPrim(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, 20, 15, 1)
		k, err := g.KruskalMST()
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.PrimMST()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(k.Weight-p.Weight) > 1e-9 {
			t.Fatalf("seed %d: Kruskal weight %v != Prim weight %v", seed, k.Weight, p.Weight)
		}
		if len(k.Edges) != g.NumNodes()-1 {
			t.Fatalf("seed %d: MST has %d edges, want %d", seed, len(k.Edges), g.NumNodes()-1)
		}
		// Distinct weights ⇒ unique MST ⇒ identical edge sets.
		for _, e := range k.Edges {
			if !p.Contains(e.A, e.B) {
				t.Fatalf("seed %d: edge %v in Kruskal MST but not Prim MST", seed, e)
			}
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := line(2)
	g.MustAddNode(Node{ID: 9})
	if _, err := g.KruskalMST(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Kruskal err = %v, want ErrDisconnected", err)
	}
	if _, err := g.PrimMST(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Prim err = %v, want ErrDisconnected", err)
	}
	if _, err := New().KruskalMST(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("empty Kruskal err = %v, want ErrDisconnected", err)
	}
}

// Property: an MST spans the graph (its edges connect all nodes) and its
// weight never exceeds the weight of the full graph.
func TestPropertyMSTSpans(t *testing.T) {
	f := func(seed int64, sz uint8, extra uint8) bool {
		n := int(sz%30) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, n, int(extra%20), 1)
		mst, err := g.KruskalMST()
		if err != nil {
			return false
		}
		sub := New()
		for _, nd := range g.Nodes() {
			sub.MustAddNode(nd)
		}
		var total float64
		for _, e := range g.Edges() {
			total += e.Weight
		}
		for _, e := range mst.Edges {
			sub.MustAddEdge(e.A, e.B, e.Weight)
		}
		return sub.Connected() && mst.Weight <= total+1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTreeAdjacency(t *testing.T) {
	tr := Tree{Edges: []Edge{{A: 1, B: 2, Weight: 1}, {A: 2, B: 3, Weight: 1}}}
	adj := tr.Adjacency()
	if len(adj[2]) != 2 || adj[2][0] != 1 || adj[2][1] != 3 {
		t.Errorf("Adjacency()[2] = %v, want [1 3]", adj[2])
	}
	if !tr.Contains(3, 2) || tr.Contains(1, 3) {
		t.Error("Contains gave wrong membership")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := line(3)
	c := g.Clone()
	g.MustAddNode(Node{ID: 77})
	if _, ok := c.Node(77); ok {
		t.Error("mutation of original visible in clone")
	}
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Weight(0, 1); !ok {
		t.Error("mutation of clone visible in original")
	}
}

func TestSubgraph(t *testing.T) {
	g := line(5)
	s := g.Subgraph([]NodeID{1, 2, 3, 42})
	if s.NumNodes() != 3 {
		t.Fatalf("subgraph has %d nodes, want 3", s.NumNodes())
	}
	if s.NumEdges() != 2 {
		t.Errorf("subgraph has %d edges, want 2 (1-2, 2-3)", s.NumEdges())
	}
	if _, ok := s.Weight(0, 1); ok {
		t.Error("subgraph contains edge to excluded node")
	}
}

func TestRegionsAndBorderNodes(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: 1, Region: "east"})
	g.MustAddNode(Node{ID: 2, Region: "east"})
	g.MustAddNode(Node{ID: 3, Region: "west"})
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	regions := g.Regions()
	if len(regions) != 2 || regions[0] != "east" || regions[1] != "west" {
		t.Errorf("Regions() = %v", regions)
	}
	border := g.BorderNodes()
	if len(border) != 2 || border[0].ID != 2 || border[1].ID != 3 {
		t.Errorf("BorderNodes() = %v, want nodes 2 and 3", border)
	}
	east := g.NodesInRegion("east")
	if len(east) != 2 {
		t.Errorf("NodesInRegion(east) = %v", east)
	}
}

func TestFigure1Invariants(t *testing.T) {
	ex := Figure1()
	if !ex.G.Connected() {
		t.Fatal("Figure 1 topology not connected")
	}
	if got := ex.TotalUsers(); got != 270 {
		t.Errorf("total users = %d, want 270", got)
	}
	// Every link costs one unit.
	for _, e := range ex.G.Edges() {
		if e.Weight != 1 {
			t.Errorf("edge %v has weight %v, want 1", e, e.Weight)
		}
	}
	// Prose constraint: shortest one-way path H2→S1 is 2 units.
	p, err := ex.G.ShortestPaths(ex.Hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dist[ex.Servers[0]]; d != 2 {
		t.Errorf("dist H2→S1 = %v, want 2", d)
	}
	// Nearest servers must reproduce Table 1's assignment.
	wantNearest := []int{0, 1, 0, 1, 1, 2} // index into ex.Servers per host
	for hi, h := range ex.Hosts {
		ph, err := ex.G.ShortestPaths(h)
		if err != nil {
			t.Fatal(err)
		}
		best, bestD := -1, math.Inf(1)
		for si, s := range ex.Servers {
			if d := ph.Dist[s]; d < bestD {
				best, bestD = si, d
			}
		}
		if best != wantNearest[hi] {
			t.Errorf("host H%d nearest server = S%d, want S%d", hi+1, best+1, wantNearest[hi]+1)
		}
	}
}

func TestTable3VariantInvariants(t *testing.T) {
	ex := Table3Variant()
	if !ex.G.Connected() {
		t.Fatal("Table 3 topology not connected")
	}
	want := []int{100, 100, 20}
	for i, h := range ex.Hosts {
		if ex.Users[h] != want[i] {
			t.Errorf("users on H%d = %d, want %d", i+1, ex.Users[h], want[i])
		}
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(seed)*3
		g := RandomConnected(rng, n, 7, 1)
		if g.NumNodes() != n {
			t.Fatalf("seed %d: %d nodes, want %d", seed, g.NumNodes(), n)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: not connected", seed)
		}
		// All weights distinct.
		seen := make(map[float64]bool)
		for _, e := range g.Edges() {
			if seen[e.Weight] {
				t.Fatalf("seed %d: duplicate weight %v", seed, e.Weight)
			}
			seen[e.Weight] = true
		}
	}
}

func TestRandomConnectedDegenerate(t *testing.T) {
	if g := RandomConnected(rand.New(rand.NewSource(1)), 0, 5, 1); g.NumNodes() != 0 {
		t.Error("n=0 should give empty graph")
	}
	if g := RandomConnected(rand.New(rand.NewSource(1)), 1, 5, 1); g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Error("n=1 should give single node, no edges")
	}
	// Extra edges beyond the complete graph are clamped.
	g := RandomConnected(rand.New(rand.NewSource(1)), 4, 1000, 1)
	if g.NumEdges() != 6 {
		t.Errorf("complete K4 should have 6 edges, got %d", g.NumEdges())
	}
}

func TestMultiRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := MultiRegion(rng, MultiRegionSpec{Regions: 4, NodesPerRegion: 6, ExtraIntra: 3, InterLinks: 2})
	if !g.Connected() {
		t.Fatal("multi-region graph not connected")
	}
	if got := len(g.Regions()); got != 4 {
		t.Fatalf("got %d regions, want 4", got)
	}
	if len(g.BorderNodes()) < 4 {
		t.Errorf("expected at least one border node per region, got %d", len(g.BorderNodes()))
	}
	// Intra-region subgraphs stay connected (needed for local MSTs).
	for _, region := range g.Regions() {
		var ids []NodeID
		for _, n := range g.NodesInRegion(region) {
			ids = append(ids, n.ID)
		}
		if sub := g.Subgraph(ids); !sub.Connected() {
			t.Errorf("region %s subgraph not connected", region)
		}
	}
}

func TestMultiRegionTwoRegionsNoDuplicateRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := MultiRegion(rng, MultiRegionSpec{Regions: 2, NodesPerRegion: 4, InterLinks: 1})
	if !g.Connected() {
		t.Fatal("2-region graph not connected")
	}
	inter := 0
	for _, e := range g.Edges() {
		na, _ := g.Node(e.A)
		nb, _ := g.Node(e.B)
		if na.Region != nb.Region {
			inter++
		}
	}
	if inter != 1 {
		t.Errorf("2 regions with InterLinks=1 should have exactly 1 inter-region link, got %d", inter)
	}
}

func TestWriteDOT(t *testing.T) {
	ex := Figure1()
	mst, err := ex.G.KruskalMST()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.G.WriteDOT(&buf, "fig1", &mst); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"fig1\"", "H1", "S3", "style=bold", "cluster_0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// normEdge and PrimMST are Kruskal's oracle in TestKruskalEqualsPrim.
func normEdge(a, b NodeID, w float64) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b, Weight: w}
}

// PrimMST computes a minimum-weight spanning tree with Prim's algorithm
// (lazy-deletion edge heap over the frozen view, O(E log E) instead of the
// previous quadratic frontier rescans). For graphs with distinct edge
// weights it returns the same tree as KruskalMST; it exists as an
// independent cross-check. Ties break on (weight, lower endpoint, higher
// endpoint) for determinism.
func (g *Graph) PrimMST() (Tree, error) {
	f := g.Frozen()
	n := f.Len()
	if n == 0 {
		return Tree{}, ErrDisconnected
	}
	type cand struct {
		w        float64
		from, to int32
	}
	less := func(a, b cand) bool {
		if a.w != b.w {
			return a.w < b.w
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	}
	var h []cand
	push := func(c cand) {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if less(h[p], h[i]) || !less(h[i], h[p]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() cand {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < last && less(h[l], h[m]) {
				m = l
			}
			if r < last && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	inTree := make([]bool, n)
	addFrontier := func(i int32) {
		inTree[i] = true
		nbrs, wts := f.Row(int(i))
		for k, nb := range nbrs {
			if !inTree[nb] {
				push(cand{w: wts[k], from: i, to: nb})
			}
		}
	}
	addFrontier(0) // dense index 0 == lowest NodeID, the previous start node
	var t Tree
	for len(t.Edges) < n-1 {
		if len(h) == 0 {
			return Tree{}, ErrDisconnected
		}
		c := pop()
		if inTree[c.to] {
			continue
		}
		t.Edges = append(t.Edges, normEdge(f.IDOf(int(c.from)), f.IDOf(int(c.to)), c.w))
		t.Weight += c.w
		addFrontier(c.to)
	}
	sort.Slice(t.Edges, func(i, j int) bool {
		if t.Edges[i].A != t.Edges[j].A {
			return t.Edges[i].A < t.Edges[j].A
		}
		return t.Edges[i].B < t.Edges[j].B
	})
	return t, nil
}
