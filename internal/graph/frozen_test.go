package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestFrozenIndexRoundTrip(t *testing.T) {
	g := New()
	for _, id := range []NodeID{7, 2, 9, 4} {
		g.MustAddNode(Node{ID: id})
	}
	f := g.Frozen()
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	want := []NodeID{2, 4, 7, 9}
	for i, id := range want {
		if f.IDOf(i) != id {
			t.Errorf("IDOf(%d) = %d, want %d", i, f.IDOf(i), id)
		}
		if got, ok := f.IndexOf(id); !ok || got != i {
			t.Errorf("IndexOf(%d) = %d,%v, want %d,true", id, got, ok, i)
		}
	}
	if _, ok := f.IndexOf(42); ok {
		t.Error("IndexOf(unknown) reported present")
	}
}

func TestFrozenCachedAndInvalidated(t *testing.T) {
	g := line(4)
	f1 := g.Frozen()
	if f2 := g.Frozen(); f1 != f2 {
		t.Error("Frozen not cached between calls")
	}
	// Every mutation must invalidate.
	g.MustAddNode(Node{ID: 99})
	f3 := g.Frozen()
	if f3 == f1 || f3.Len() != 5 {
		t.Error("AddNode did not invalidate the frozen view")
	}
	g.MustAddEdge(3, 99, 1)
	if f := g.Frozen(); f == f3 || len(f.Edges()) != 4 {
		t.Error("AddEdge did not invalidate the frozen view")
	}
	if err := g.RemoveEdge(3, 99); err != nil {
		t.Fatal(err)
	}
	if f := g.Frozen(); len(f.Edges()) != 3 {
		t.Error("RemoveEdge did not invalidate the frozen view")
	}
	// Queries through the refreshed view see the mutation.
	p, err := g.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist[3] != 3 {
		t.Errorf("dist 0→3 = %v after mutations, want 3", p.Dist[3])
	}
}

func TestFrozenEdgesSortedAndCached(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomConnected(rng, 30, 40, 1)
	f := g.Frozen()
	edges := f.Edges()
	for i := 1; i < len(edges); i++ {
		if edges[i].A < edges[i-1].A ||
			(edges[i].A == edges[i-1].A && edges[i].B <= edges[i-1].B) {
			t.Fatalf("Edges not sorted by (A,B) at %d: %v, %v", i, edges[i-1], edges[i])
		}
	}
	bw := f.byWeight
	if len(bw) != len(edges) {
		t.Fatalf("byWeight len %d != Edges len %d", len(bw), len(edges))
	}
	for i := 1; i < len(bw); i++ {
		if bw[i].Weight < bw[i-1].Weight {
			t.Fatalf("byWeight not sorted at %d", i)
		}
	}
	// Graph.Edges returns a defensive copy of the cached slice.
	out := g.Edges()
	out[0].Weight = -123
	if f.Edges()[0].Weight == -123 {
		t.Error("Graph.Edges aliased the cached frozen slice")
	}
}

func TestFrozenShortestFromMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(rng, 40, 30, 1)
		g.MustAddNode(Node{ID: 999}) // unreachable island
		f := g.Frozen()
		dist := make([]float64, f.Len())
		prev := make([]int32, f.Len())
		src := rng.Intn(40)
		f.ShortestFrom(src, dist, prev)
		oracle := bellmanFord(g, f.IDOf(src))
		for i := 0; i < f.Len(); i++ {
			want, reach := oracle[f.IDOf(i)]
			if !reach {
				if !math.IsInf(dist[i], 1) {
					t.Fatalf("seed %d: node %d reachable in frozen but not oracle", seed, f.IDOf(i))
				}
				if prev[i] != -1 {
					t.Fatalf("seed %d: unreachable node %d has prev", seed, f.IDOf(i))
				}
				continue
			}
			if math.Abs(dist[i]-want) > 1e-9 {
				t.Fatalf("seed %d: dist to %d = %v, want %v", seed, f.IDOf(i), dist[i], want)
			}
		}
		// prev encodes a valid shortest-path tree: dist[i] = dist[prev]+w.
		for i := 0; i < f.Len(); i++ {
			if prev[i] < 0 {
				continue
			}
			w, ok := g.Weight(f.IDOf(int(prev[i])), f.IDOf(i))
			if !ok {
				t.Fatalf("prev edge %d-%d not in graph", f.IDOf(int(prev[i])), f.IDOf(i))
			}
			if math.Abs(dist[prev[i]]+w-dist[i]) > 1e-9 {
				t.Fatalf("prev chain not tight at node %d", f.IDOf(i))
			}
		}
	}
}

// Concurrent read-only use must be race-free: many goroutines forcing the
// lazy freeze and running queries on the same graph (exercised under -race
// by tier-2).
func TestFrozenConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(rng, 60, 60, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := NodeID(w * 7 % 60)
			for i := 0; i < 10; i++ {
				if _, err := g.ShortestPaths(src); err != nil {
					t.Error(err)
					return
				}
				if _, err := g.KruskalMST(); err != nil {
					t.Error(err)
					return
				}
				g.Edges()
			}
		}(w)
	}
	wg.Wait()
}

func TestFrozenRow(t *testing.T) {
	g := line(3)
	f := g.Frozen()
	i1, _ := f.IndexOf(1)
	nbrs, wts := f.Row(i1)
	if len(nbrs) != 2 || f.IDOf(int(nbrs[0])) != 0 || f.IDOf(int(nbrs[1])) != 2 {
		t.Fatalf("Row(1) neighbors = %v", nbrs)
	}
	if wts[0] != 1 || wts[1] != 1 {
		t.Fatalf("Row(1) weights = %v", wts)
	}
}

func TestFrozenEmptyGraph(t *testing.T) {
	f := New().Frozen()
	if f.Len() != 0 || len(f.Edges()) != 0 {
		t.Error("empty graph frozen view not empty")
	}
}
