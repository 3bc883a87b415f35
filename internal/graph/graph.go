// Package graph models the internetwork topologies the mail systems run on.
//
// The paper assumes "the networks on which the mail system is built form a
// connected undirected graph with computers (i.e., hosts, servers,
// mail-forwarders, etc.) as nodes and the communication links as the edges.
// Each edge is assigned a finite weight cost" (§3.3.1-A). This package
// provides that model plus the centralized algorithms the designs rely on:
// Dijkstra shortest paths (the "shortest-path zero-load algorithm" used to
// initialize connection costs in §3.1.1) and Kruskal's minimum-weight
// spanning tree (the correctness baseline for the distributed GHS MST in
// internal/mst).
package graph

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/largemail/largemail/internal/names"
)

// NodeID identifies a node within one Graph: names.NodeID, declared in that
// leaf package so that the mail layers name nodes without linking this one.
type NodeID = names.NodeID

// Kind classifies what a node represents in a mail-system topology.
type Kind int

// Node kinds. Routers only forward traffic; hosts run users; servers run
// mail (authority) servers.
const (
	KindRouter Kind = iota + 1
	KindHost
	KindServer
)

func (k Kind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindHost:
		return "host"
	case KindServer:
		return "server"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a computer in the internetwork.
type Node struct {
	ID     NodeID
	Label  string
	Region string
	Kind   Kind
}

// Edge is an undirected weighted link. Invariant: A < B.
type Edge struct {
	A, B   NodeID
	Weight float64
}

// Errors reported by Graph mutations and queries.
var (
	ErrNodeExists    = errors.New("graph: node already exists")
	ErrNodeNotFound  = errors.New("graph: node not found")
	ErrSelfLoop      = errors.New("graph: self loop")
	ErrBadWeight     = errors.New("graph: edge weight must be positive and finite")
	ErrDisconnected  = errors.New("graph: graph is not connected")
	ErrEdgeNotFound  = errors.New("graph: edge not found")
	ErrDuplicateEdge = errors.New("graph: edge already exists")
)

// Graph is a weighted undirected graph. The zero value is not usable; create
// with New. Graph is not safe for concurrent mutation, but concurrent
// read-only use (queries and the algorithms below) is safe.
type Graph struct {
	nodes map[NodeID]Node
	adj   map[NodeID]map[NodeID]float64

	mu     sync.Mutex // guards frozen
	frozen *Frozen    // cached indexed view; nil until built, reset on mutation
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]Node),
		adj:   make(map[NodeID]map[NodeID]float64),
	}
}

// AddNode inserts n. It fails if a node with the same ID exists.
func (g *Graph) AddNode(n Node) error {
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("%w: %d", ErrNodeExists, n.ID)
	}
	g.nodes[n.ID] = n
	g.adj[n.ID] = make(map[NodeID]float64)
	g.invalidate()
	return nil
}

// MustAddNode is AddNode for static topology construction; it panics on error.
func (g *Graph) MustAddNode(n Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts an undirected edge between a and b with weight w.
func (g *Graph) AddEdge(a, b NodeID, w float64) error {
	if a == b {
		return fmt.Errorf("%w: %d", ErrSelfLoop, a)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	if _, ok := g.nodes[a]; !ok {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, a)
	}
	if _, ok := g.nodes[b]; !ok {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, b)
	}
	if _, ok := g.adj[a][b]; ok {
		return fmt.Errorf("%w: %d-%d", ErrDuplicateEdge, a, b)
	}
	g.adj[a][b] = w
	g.adj[b][a] = w
	g.invalidate()
	return nil
}

// MustAddEdge is AddEdge for static topology construction; it panics on error.
func (g *Graph) MustAddEdge(a, b NodeID, w float64) {
	if err := g.AddEdge(a, b, w); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge between a and b.
func (g *Graph) RemoveEdge(a, b NodeID) error {
	if _, ok := g.adj[a][b]; !ok {
		return fmt.Errorf("%w: %d-%d", ErrEdgeNotFound, a, b)
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.invalidate()
	return nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nbs := range g.adj {
		total += len(nbs)
	}
	return total / 2
}

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodeIDs returns all node IDs sorted ascending.
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all undirected edges sorted by (A, B). The sort is computed
// once per topology on the frozen view; each call returns a fresh copy the
// caller may mutate.
func (g *Graph) Edges() []Edge {
	cached := g.Frozen().Edges()
	out := make([]Edge, len(cached))
	copy(out, cached)
	return out
}

// Neighbors returns the IDs adjacent to id, sorted ascending.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	nbs := g.adj[id]
	out := make([]NodeID, 0, len(nbs))
	for nb := range nbs {
		out = append(out, nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Weight reports the weight of the edge between a and b.
func (g *Graph) Weight(a, b NodeID) (float64, bool) {
	w, ok := g.adj[a][b]
	return w, ok
}

// NodesInRegion returns the nodes tagged with region, sorted by ID.
func (g *Graph) NodesInRegion(region string) []Node {
	var out []Node
	for _, n := range g.nodes {
		if n.Region == region {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Regions returns the distinct region tags present, sorted.
func (g *Graph) Regions() []string {
	set := make(map[string]bool)
	for _, n := range g.nodes {
		set[n.Region] = true
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// BorderNodes returns the nodes with at least one edge to a node in a
// different region, sorted by ID. These are the nodes the paper's modified
// MST algorithm builds the back-bone from: "the back-bone MST is formed by
// nodes which are directly connected to nodes in other regions" (§3.3.1-A).
func (g *Graph) BorderNodes() []Node {
	var out []Node
	for id, n := range g.nodes {
		for nb := range g.adj[id] {
			if g.nodes[nb].Region != n.Region {
				out = append(out, n)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Connected reports whether every node is reachable from every other.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	var start NodeID
	for id := range g.nodes {
		start = id
		break
	}
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range g.adj[id] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for id, n := range g.nodes {
		c.nodes[id] = n
		c.adj[id] = make(map[NodeID]float64, len(g.adj[id]))
		for nb, w := range g.adj[id] {
			c.adj[id][nb] = w
		}
	}
	return c
}

// Subgraph returns the induced subgraph on the given node IDs. Unknown IDs
// are ignored.
func (g *Graph) Subgraph(ids []NodeID) *Graph {
	keep := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	s := New()
	for id, n := range g.nodes {
		if keep[id] {
			s.nodes[id] = n
			s.adj[id] = make(map[NodeID]float64)
		}
	}
	for id := range s.nodes {
		for nb, w := range g.adj[id] {
			if keep[nb] {
				s.adj[id][nb] = w
			}
		}
	}
	return s
}

// Paths holds single-source shortest-path results.
type Paths struct {
	Source NodeID
	Dist   map[NodeID]float64
	Prev   map[NodeID]NodeID // predecessor on the shortest path; source absent
}

// ShortestPaths runs Dijkstra from src. This is the "shortest-path zero-load
// (i.e., no traffic) algorithm between hosts and servers" the assignment
// procedure initializes connection costs with (§3.1.1). Unreachable nodes
// are absent from Dist.
func (g *Graph) ShortestPaths(src NodeID) (Paths, error) {
	f := g.Frozen()
	si, ok := f.IndexOf(src)
	if !ok {
		return Paths{}, fmt.Errorf("%w: %d", ErrNodeNotFound, src)
	}
	n := f.Len()
	dist := make([]float64, n)
	prev := make([]int32, n)
	f.ShortestFrom(si, dist, prev)
	p := Paths{Source: src, Dist: make(map[NodeID]float64, n), Prev: make(map[NodeID]NodeID, n)}
	for i := 0; i < n; i++ {
		if math.IsInf(dist[i], 1) {
			continue
		}
		p.Dist[f.IDOf(i)] = dist[i]
		if prev[i] >= 0 {
			p.Prev[f.IDOf(i)] = f.IDOf(int(prev[i]))
		}
	}
	return p, nil
}

// PathTo reconstructs the node sequence from the source to dst, inclusive.
// It returns nil if dst is unreachable.
func (p Paths) PathTo(dst NodeID) []NodeID {
	if _, ok := p.Dist[dst]; !ok {
		return nil
	}
	var rev []NodeID
	for at := dst; ; {
		rev = append(rev, at)
		if at == p.Source {
			break
		}
		at = p.Prev[at]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// unionFind is a disjoint-set forest with path compression over dense
// indices, for Kruskal.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]] // path halving
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u[ra] = rb
	return true
}

// Tree is a spanning tree: the chosen edges and their total weight.
type Tree struct {
	Edges  []Edge
	Weight float64
}

// Contains reports whether the tree includes the undirected edge a-b.
func (t Tree) Contains(a, b NodeID) bool {
	if a > b {
		a, b = b, a
	}
	for _, e := range t.Edges {
		if e.A == a && e.B == b {
			return true
		}
	}
	return false
}

// Adjacency returns the tree as an adjacency list keyed by node.
func (t Tree) Adjacency() map[NodeID][]NodeID {
	adj := make(map[NodeID][]NodeID)
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	for _, nbs := range adj {
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	}
	return adj
}

// KruskalMST computes a minimum-weight spanning tree. With distinct edge
// weights the MST is unique ([GAL83] relies on this); ties are broken
// deterministically by edge endpoints. It fails if the graph is disconnected
// or empty of nodes.
func (g *Graph) KruskalMST() (Tree, error) {
	f := g.Frozen()
	if f.Len() == 0 {
		return Tree{}, ErrDisconnected
	}
	uf := newUnionFind(f.Len())
	var t Tree
	for i, e := range f.byWeight { // pre-sorted by (Weight, A, B) on the frozen view
		if uf.union(f.bwIdx[i][0], f.bwIdx[i][1]) {
			t.Edges = append(t.Edges, e)
			t.Weight += e.Weight
		}
	}
	if len(t.Edges) != f.Len()-1 {
		return Tree{}, ErrDisconnected
	}
	return t, nil
}

// WriteDOT renders the graph in Graphviz DOT format, grouping nodes into
// clusters by region. tree, if non-nil, highlights its edges in bold — used
// to render Figure 2 (back-bone MST + local MSTs).
func (g *Graph) WriteDOT(w io.Writer, name string, tree *Tree) error {
	if _, err := fmt.Fprintf(w, "graph %q {\n", name); err != nil {
		return err
	}
	for ri, region := range g.Regions() {
		if region != "" {
			fmt.Fprintf(w, "  subgraph cluster_%d {\n    label=%q;\n", ri, region)
		}
		for _, n := range g.NodesInRegion(region) {
			label := n.Label
			if label == "" {
				label = fmt.Sprintf("n%d", n.ID)
			}
			shape := "ellipse"
			switch n.Kind {
			case KindServer:
				shape = "box"
			case KindRouter:
				shape = "diamond"
			}
			indent := "  "
			if region != "" {
				indent = "    "
			}
			fmt.Fprintf(w, "%sn%d [label=%q shape=%s];\n", indent, n.ID, label, shape)
		}
		if region != "" {
			fmt.Fprintln(w, "  }")
		}
	}
	for _, e := range g.Edges() {
		style := ""
		if tree != nil && tree.Contains(e.A, e.B) {
			style = " style=bold penwidth=2"
		}
		fmt.Fprintf(w, "  n%d -- n%d [label=\"%g\"%s];\n", e.A, e.B, e.Weight, style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
