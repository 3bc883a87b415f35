package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bellmanFord is an independent O(V·E) shortest-path oracle used to
// cross-check Dijkstra.
func bellmanFord(g *Graph, src NodeID) map[NodeID]float64 {
	dist := map[NodeID]float64{src: 0}
	edges := g.Edges()
	for i := 0; i < g.NumNodes(); i++ {
		changed := false
		for _, e := range edges {
			if da, ok := dist[e.A]; ok {
				if db, ok2 := dist[e.B]; !ok2 || da+e.Weight < db {
					dist[e.B] = da + e.Weight
					changed = true
				}
			}
			if db, ok := dist[e.B]; ok {
				if da, ok2 := dist[e.A]; !ok2 || db+e.Weight < da {
					dist[e.A] = db + e.Weight
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Property: Dijkstra agrees with Bellman-Ford on random connected graphs.
func TestPropertyDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed int64, szRaw, extraRaw uint8) bool {
		n := int(szRaw%25) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, n, int(extraRaw%30), 1)
		src := g.NodeIDs()[rng.Intn(n)]
		p, err := g.ShortestPaths(src)
		if err != nil {
			return false
		}
		oracle := bellmanFord(g, src)
		if len(oracle) != len(p.Dist) {
			return false
		}
		for id, want := range oracle {
			if math.Abs(p.Dist[id]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: shortest-path distance is a metric — symmetric and satisfying
// the triangle inequality — on random connected graphs.
func TestPropertyShortestPathMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := RandomConnected(rng, n, n/2, 1)
		fr := g.Frozen()
		ap := make([][]float64, fr.Len())
		for a := range ap {
			ap[a] = make([]float64, fr.Len())
			fr.ShortestFrom(a, ap[a], make([]int32, fr.Len()))
		}
		for a := range ap {
			if ap[a][a] != 0 {
				return false
			}
			for b := range ap {
				if math.Abs(ap[a][b]-ap[b][a]) > 1e-9 {
					return false
				}
				for c := range ap {
					if ap[a][c] > ap[a][b]+ap[b][c]+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: a reconstructed shortest path is actually a path in the graph
// and its edge weights sum to the reported distance.
func TestPropertyPathToConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := RandomConnected(rng, n, n, 1)
		ids := g.NodeIDs()
		src := ids[rng.Intn(n)]
		dst := ids[rng.Intn(n)]
		p, err := g.ShortestPaths(src)
		if err != nil {
			return false
		}
		path := p.PathTo(dst)
		if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
			return false
		}
		sum := 0.0
		for i := 0; i+1 < len(path); i++ {
			w, ok := g.Weight(path[i], path[i+1])
			if !ok {
				return false // not an edge
			}
			sum += w
		}
		return math.Abs(sum-p.Dist[dst]) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: removing one MST edge disconnects the tree (it is minimal as a
// connected subgraph, not just minimum-weight).
func TestPropertyMSTMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := RandomConnected(rng, n, n/2, 1)
		mst, err := g.KruskalMST()
		if err != nil {
			return false
		}
		for drop := range mst.Edges {
			sub := New()
			for _, nd := range g.Nodes() {
				sub.MustAddNode(nd)
			}
			for i, e := range mst.Edges {
				if i == drop {
					continue
				}
				sub.MustAddEdge(e.A, e.B, e.Weight)
			}
			if sub.Connected() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
