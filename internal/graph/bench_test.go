package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// benchGraph is a 2k-node topology shared by the micro-benchmarks.
func benchGraph() *Graph {
	rng := rand.New(rand.NewSource(42))
	return RandomConnected(rng, 2000, 6000, 1)
}

// BenchmarkEdgesCached measures Edges() backed by the frozen view's cached
// sort: each call pays one O(E) copy, no re-sort.
func BenchmarkEdgesCached(b *testing.B) {
	g := benchGraph()
	g.Frozen() // build outside the measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Edges()) == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkEdgesResortBaseline replicates the pre-frozen behavior — collect
// from the adjacency maps and sort on every call — to show the cache win.
func BenchmarkEdgesResortBaseline(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []Edge
		for a, nbs := range g.adj {
			for bb, w := range nbs {
				if a < bb {
					out = append(out, Edge{A: a, B: bb, Weight: w})
				}
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].A != out[j].A {
				return out[i].A < out[j].A
			}
			return out[i].B < out[j].B
		})
		if len(out) == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkKruskalRepeated measures repeated MST builds on one topology —
// the mst.Backbone pattern — which now reuse the frozen pre-sorted edges.
func BenchmarkKruskalRepeated(b *testing.B) {
	g := benchGraph()
	g.Frozen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.KruskalMST(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPaths2k measures one single-source Dijkstra on the 2k
// topology through the public map-returning API.
func BenchmarkShortestPaths2k(b *testing.B) {
	g := benchGraph()
	g.Frozen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPaths(NodeID(i % 2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrozenShortestFrom measures the allocation-free array Dijkstra
// the assignment fan-out uses.
func BenchmarkFrozenShortestFrom(b *testing.B) {
	f := benchGraph().Frozen()
	dist := make([]float64, f.Len())
	prev := make([]int32, f.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ShortestFrom(i%f.Len(), dist, prev)
	}
}
