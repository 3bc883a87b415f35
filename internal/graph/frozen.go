package graph

// This file implements the frozen (indexed) view of a Graph: a dense node
// index plus CSR-style adjacency arrays, built once and cached until the
// next mutation. Dijkstra and Kruskal run on it with array reads instead of
// map lookups, and the sorted edge lists are computed once per topology
// instead of once per call.

import (
	"math"
	"sort"
)

// Frozen is an immutable, densely indexed snapshot of a Graph. Nodes are
// numbered 0..Len()-1 in ascending NodeID order, so index order and NodeID
// order coincide (which keeps tie-breaking identical to the map-based
// algorithms). A Frozen is safe for concurrent use; it never observes later
// mutations of the Graph it was built from.
type Frozen struct {
	ids      []NodeID         // dense index -> NodeID, ascending
	index    map[NodeID]int32 // NodeID -> dense index
	rowStart []int32          // CSR row offsets, len = Len()+1
	nbr      []int32          // neighbor dense indices, row-sorted ascending
	wt       []float64        // edge weights parallel to nbr
	edges    []Edge           // undirected edges sorted by (A, B)
	byWeight []Edge           // undirected edges sorted by (Weight, A, B)
	bwIdx    [][2]int32       // dense endpoints parallel to byWeight
}

// Frozen returns the cached frozen view, building it on first use. Any
// mutation of the graph (AddNode, AddEdge, RemoveEdge) invalidates the
// cache; the next call rebuilds it. Concurrent readers may call Frozen
// simultaneously, but mutation remains unsynchronized with reads, as
// everywhere else on Graph.
func (g *Graph) Frozen() *Frozen {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.frozen == nil {
		g.frozen = freeze(g)
	}
	return g.frozen
}

// invalidate drops the cached frozen view; called by every mutation.
func (g *Graph) invalidate() {
	g.mu.Lock()
	g.frozen = nil
	g.mu.Unlock()
}

func freeze(g *Graph) *Frozen {
	n := len(g.nodes)
	f := &Frozen{
		ids:      make([]NodeID, 0, n),
		index:    make(map[NodeID]int32, n),
		rowStart: make([]int32, n+1),
	}
	for id := range g.nodes {
		f.ids = append(f.ids, id)
	}
	sort.Slice(f.ids, func(i, j int) bool { return f.ids[i] < f.ids[j] })
	for i, id := range f.ids {
		f.index[id] = int32(i)
	}
	total := 0
	for i, id := range f.ids {
		f.rowStart[i] = int32(total)
		total += len(g.adj[id])
	}
	f.rowStart[n] = int32(total)
	f.nbr = make([]int32, total)
	f.wt = make([]float64, total)
	f.edges = make([]Edge, 0, total/2)
	for i, id := range f.ids {
		row := f.nbr[f.rowStart[i]:f.rowStart[i+1]]
		k := 0
		for nb := range g.adj[id] {
			row[k] = f.index[nb]
			k++
		}
		sort.Slice(row, func(x, y int) bool { return row[x] < row[y] })
		for j, nbIdx := range row {
			w := g.adj[id][f.ids[nbIdx]]
			f.wt[f.rowStart[i]+int32(j)] = w
			// Index order == NodeID order, so emitting (i < nb) rows in
			// ascending row/neighbor order yields edges sorted by (A, B).
			if int32(i) < nbIdx {
				f.edges = append(f.edges, Edge{A: id, B: f.ids[nbIdx], Weight: w})
			}
		}
	}
	f.byWeight = append([]Edge(nil), f.edges...)
	sort.Slice(f.byWeight, func(i, j int) bool {
		if f.byWeight[i].Weight != f.byWeight[j].Weight {
			return f.byWeight[i].Weight < f.byWeight[j].Weight
		}
		if f.byWeight[i].A != f.byWeight[j].A {
			return f.byWeight[i].A < f.byWeight[j].A
		}
		return f.byWeight[i].B < f.byWeight[j].B
	})
	f.bwIdx = make([][2]int32, len(f.byWeight))
	for i, e := range f.byWeight {
		f.bwIdx[i] = [2]int32{f.index[e.A], f.index[e.B]}
	}
	return f
}

// Len reports the number of nodes in the frozen view.
func (f *Frozen) Len() int { return len(f.ids) }

// IDOf maps a dense index back to its NodeID.
func (f *Frozen) IDOf(i int) NodeID { return f.ids[i] }

// IndexOf maps a NodeID to its dense index.
func (f *Frozen) IndexOf(id NodeID) (int, bool) {
	i, ok := f.index[id]
	return int(i), ok
}

// Edges returns the undirected edges sorted by (A, B). The returned slice
// is the cached copy shared by all callers — read-only.
func (f *Frozen) Edges() []Edge { return f.edges }

// Row returns node i's CSR adjacency row: neighbor dense indices (ascending)
// and the parallel edge weights. Both slices are read-only views.
func (f *Frozen) Row(i int) (nbr []int32, wt []float64) {
	return f.nbr[f.rowStart[i]:f.rowStart[i+1]], f.wt[f.rowStart[i]:f.rowStart[i+1]]
}

// distItem is a binary-heap entry for the array Dijkstra.
type distItem struct {
	dist float64
	idx  int32
}

// distHeap is a hand-rolled binary min-heap: no interface dispatch on the
// hot path. Ties break on the dense index, which equals NodeID order.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist < s[i].dist || (s[p].dist == s[i].dist && s[p].idx <= s[i].idx) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && (s[l].dist < s[m].dist || (s[l].dist == s[m].dist && s[l].idx < s[m].idx)) {
			m = l
		}
		if r < last && (s[r].dist < s[m].dist || (s[r].dist == s[m].dist && s[r].idx < s[m].idx)) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// ShortestFrom runs Dijkstra from the dense index src, writing results into
// the caller-provided scratch: dist[i] is the distance to node i (+Inf when
// unreachable) and prev[i] the predecessor's dense index (-1 for src and
// unreachable nodes). Both slices must have length Len(). Scratch reuse
// across calls is what lets the parallel fan-outs run allocation-free.
func (f *Frozen) ShortestFrom(src int, dist []float64, prev []int32) {
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	h := distHeap{{dist: 0, idx: int32(src)}}
	for len(h) > 0 {
		it := h.pop()
		if it.dist > dist[it.idx] {
			continue // stale entry
		}
		start, end := f.rowStart[it.idx], f.rowStart[it.idx+1]
		for k := start; k < end; k++ {
			nb := f.nbr[k]
			nd := it.dist + f.wt[k]
			if nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = it.idx
				h.push(distItem{dist: nd, idx: nb})
			}
		}
	}
}
