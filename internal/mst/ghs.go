// Package mst implements the distributed Minimum-weight Spanning Tree
// algorithm the paper's attribute-based mail system broadcasts over
// (§3.3.1-A), plus the paper's modification into a back-bone MST connecting
// regions with local MSTs inside each region (Fig. 2).
//
// The distributed algorithm is Gallager, Humblet and Spira's [GAL83]: "each
// node performs the same local algorithm, which consists of sending messages
// over attached links and waiting for incoming messages from other nodes and
// processing these messages". Nodes run over internal/netsim, whose links
// deliver "without error and in sequence" as the algorithm requires. Edge
// weights must be distinct so the MST is unique.
package mst

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
)

// Errors reported by the package.
var (
	ErrDisconnected     = errors.New("mst: subgraph is not connected")
	ErrDuplicateWeights = errors.New("mst: edge weights must be distinct")
	ErrIncomplete       = errors.New("mst: algorithm has not completed")
	ErrEmpty            = errors.New("mst: no member nodes")
)

// nodeState is the GHS node state (SN).
type nodeState int

const (
	stateSleeping nodeState = iota + 1
	stateFind
	stateFound
)

// edgeState is the GHS edge state (SE).
type edgeState int

const (
	edgeBasic edgeState = iota + 1
	edgeBranch
	edgeRejected
)

// Protocol messages, exactly the seven of [GAL83].
type (
	msgConnect  struct{ Level int }
	msgInitiate struct {
		Level    int
		Fragment float64
		State    nodeState
	}
	msgTest struct {
		Level    int
		Fragment float64
	}
	msgAccept     struct{}
	msgReject     struct{}
	msgReport     struct{ Weight float64 }
	msgChangeRoot struct{}
)

// Stats counts protocol traffic.
type Stats struct {
	Messages int
	ByType   map[string]int
	Deferred int // messages that had to wait on the local queue
}

// Algorithm is one GHS execution over a member subgraph of a network.
type Algorithm struct {
	net     *netsim.Network
	nodes   map[graph.NodeID]*ghsNode
	members []graph.NodeID
	stats   Stats
	halted  bool
}

// New prepares a GHS run over the induced subgraph on members. Every member
// must be free (no handler registered on its node yet); the subgraph must be
// connected with distinct edge weights.
func New(net *netsim.Network, members []graph.NodeID) (*Algorithm, error) {
	if len(members) == 0 {
		return nil, ErrEmpty
	}
	sub := net.Topology().Subgraph(members)
	if sub.NumNodes() != len(members) {
		return nil, fmt.Errorf("mst: members missing from topology")
	}
	if !sub.Connected() {
		return nil, ErrDisconnected
	}
	// One frozen build serves the duplicate-weight scan and the per-node
	// adjacency setup below — no per-call re-sorts or map walks.
	f := sub.Frozen()
	seen := make(map[float64]bool, len(f.Edges()))
	for _, e := range f.Edges() {
		if seen[e.Weight] {
			return nil, fmt.Errorf("%w: %v", ErrDuplicateWeights, e.Weight)
		}
		seen[e.Weight] = true
	}
	a := &Algorithm{
		net:     net,
		nodes:   make(map[graph.NodeID]*ghsNode, len(members)),
		members: append([]graph.NodeID(nil), members...),
		stats:   Stats{ByType: make(map[string]int)},
	}
	sort.Slice(a.members, func(i, j int) bool { return a.members[i] < a.members[j] })
	for _, id := range a.members {
		n := &ghsNode{
			id:      id,
			alg:     a,
			state:   stateSleeping,
			edges:   make(map[graph.NodeID]edgeState),
			weights: make(map[graph.NodeID]float64),
			bestWt:  math.Inf(1),
		}
		fi, _ := f.IndexOf(id)
		nbrs, wts := f.Row(fi)
		for k, nbIdx := range nbrs {
			nb := f.IDOf(int(nbIdx))
			n.edges[nb] = edgeBasic
			n.weights[nb] = wts[k]
		}
		if err := net.Register(id, n); err != nil {
			return nil, err
		}
		a.nodes[id] = n
	}
	return a, nil
}

// Start wakes every node. [GAL83] allows any subset to start spontaneously;
// waking all keeps runs deterministic.
func (a *Algorithm) Start() {
	if len(a.members) == 1 {
		// A single-node fragment is already the whole (empty) MST.
		a.halted = true
		return
	}
	for _, id := range a.members {
		a.nodes[id].wakeup()
	}
}

// Stats returns protocol traffic counters.
func (a *Algorithm) Stats() Stats {
	out := a.stats
	out.ByType = make(map[string]int, len(a.stats.ByType))
	for k, v := range a.stats.ByType {
		out.ByType[k] = v
	}
	return out
}

// Tree extracts the MST from the nodes' Branch edges. It fails if the
// algorithm has not completed or the branches are inconsistent.
func (a *Algorithm) Tree() (graph.Tree, error) {
	if !a.halted {
		return graph.Tree{}, ErrIncomplete
	}
	var t graph.Tree
	for _, id := range a.members {
		n := a.nodes[id]
		for nb, st := range n.edges {
			if st != edgeBranch || id > nb {
				continue
			}
			// Both endpoints must agree the edge is a branch.
			if a.nodes[nb].edges[id] != edgeBranch {
				return graph.Tree{}, fmt.Errorf("mst: edge %d-%d branch state asymmetric", id, nb)
			}
			t.Edges = append(t.Edges, graph.Edge{A: id, B: nb, Weight: n.weights[nb]})
			t.Weight += n.weights[nb]
		}
	}
	if len(t.Edges) != len(a.members)-1 {
		return graph.Tree{}, fmt.Errorf("mst: tree has %d edges, want %d", len(t.Edges), len(a.members)-1)
	}
	sort.Slice(t.Edges, func(i, j int) bool {
		if t.Edges[i].A != t.Edges[j].A {
			return t.Edges[i].A < t.Edges[j].A
		}
		return t.Edges[i].B < t.Edges[j].B
	})
	return t, nil
}

func (a *Algorithm) send(from, to graph.NodeID, payload any) {
	a.stats.Messages++
	a.stats.ByType[typeName(payload)]++
	// SendDirect can only fail for unknown/non-adjacent nodes, which the
	// constructor has ruled out, or a down sender — nodes do not crash
	// during an MST run (the paper's network model has reliable links and
	// live nodes for this phase).
	if err := a.net.SendDirect(from, to, payload); err != nil {
		panic(fmt.Sprintf("mst: send %d→%d: %v", from, to, err))
	}
}

func typeName(payload any) string {
	switch payload.(type) {
	case msgConnect:
		return "connect"
	case msgInitiate:
		return "initiate"
	case msgTest:
		return "test"
	case msgAccept:
		return "accept"
	case msgReject:
		return "reject"
	case msgReport:
		return "report"
	case msgChangeRoot:
		return "changeroot"
	default:
		return "unknown"
	}
}

// ghsNode is one node's GHS state machine.
type ghsNode struct {
	id  graph.NodeID
	alg *Algorithm

	state    nodeState
	level    int     // LN
	fragment float64 // FN (core edge weight)

	edges   map[graph.NodeID]edgeState
	weights map[graph.NodeID]float64

	bestEdge graph.NodeID
	bestWt   float64
	testEdge graph.NodeID
	hasTest  bool
	inBranch graph.NodeID
	findCnt  int

	deferred []netsim.Envelope
}

// Receive implements netsim.Handler.
func (n *ghsNode) Receive(env netsim.Envelope) {
	if n.process(env) {
		n.drainDeferred()
	} else {
		n.alg.stats.Deferred++
		n.deferred = append(n.deferred, env)
	}
}

// drainDeferred retries queued messages until a full pass consumes nothing.
func (n *ghsNode) drainDeferred() {
	for {
		progress := false
		kept := n.deferred[:0]
		for _, env := range n.deferred {
			if n.process(env) {
				progress = true
			} else {
				kept = append(kept, env)
			}
		}
		n.deferred = kept
		if !progress || len(n.deferred) == 0 {
			return
		}
	}
}

// process handles one message; false means "place on end of queue".
func (n *ghsNode) process(env netsim.Envelope) bool {
	j := env.From
	switch m := env.Payload.(type) {
	case msgConnect:
		return n.onConnect(j, m)
	case msgInitiate:
		n.onInitiate(j, m)
		return true
	case msgTest:
		return n.onTest(j, m)
	case msgAccept:
		n.onAccept(j)
		return true
	case msgReject:
		n.onReject(j)
		return true
	case msgReport:
		return n.onReport(j, m)
	case msgChangeRoot:
		n.changeRoot()
		return true
	default:
		return true // drop unknown traffic
	}
}

// wakeup is procedure (1) of [GAL83].
func (n *ghsNode) wakeup() {
	if n.state != stateSleeping {
		return
	}
	m := n.minEdge(func(st edgeState) bool { return true })
	n.edges[m] = edgeBranch
	n.level = 0
	n.fragment = -1
	n.state = stateFound
	n.findCnt = 0
	n.alg.send(n.id, m, msgConnect{Level: 0})
}

// minEdge returns the adjacent edge of minimum weight whose state passes the
// filter. Caller guarantees at least one exists.
func (n *ghsNode) minEdge(ok func(edgeState) bool) graph.NodeID {
	best := graph.NodeID(0)
	bestW := math.Inf(1)
	found := false
	for nb, st := range n.edges {
		if !ok(st) {
			continue
		}
		if w := n.weights[nb]; w < bestW {
			best, bestW, found = nb, w, true
		}
	}
	if !found {
		panic("mst: minEdge called with no candidate edges")
	}
	return best
}

func (n *ghsNode) hasEdgeState(want edgeState) bool {
	for _, st := range n.edges {
		if st == want {
			return true
		}
	}
	return false
}

// onConnect is procedure (2).
func (n *ghsNode) onConnect(j graph.NodeID, m msgConnect) bool {
	if n.state == stateSleeping {
		n.wakeup()
	}
	switch {
	case m.Level < n.level:
		// Absorb the lower-level fragment.
		n.edges[j] = edgeBranch
		n.alg.send(n.id, j, msgInitiate{Level: n.level, Fragment: n.fragment, State: n.state})
		if n.state == stateFind {
			n.findCnt++
		}
		return true
	case n.edges[j] == edgeBasic:
		return false // defer until levels align
	default:
		// Merge: the shared edge becomes the new core.
		n.alg.send(n.id, j, msgInitiate{Level: n.level + 1, Fragment: n.weights[j], State: stateFind})
		return true
	}
}

// onInitiate is procedure (3).
func (n *ghsNode) onInitiate(j graph.NodeID, m msgInitiate) {
	n.level = m.Level
	n.fragment = m.Fragment
	n.state = m.State
	n.inBranch = j
	n.bestWt = math.Inf(1)
	// Deterministic propagation order.
	nbs := make([]graph.NodeID, 0, len(n.edges))
	for nb := range n.edges {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(x, y int) bool { return nbs[x] < nbs[y] })
	for _, nb := range nbs {
		if nb == j || n.edges[nb] != edgeBranch {
			continue
		}
		n.alg.send(n.id, nb, msgInitiate{Level: m.Level, Fragment: m.Fragment, State: m.State})
		if m.State == stateFind {
			n.findCnt++
		}
	}
	if m.State == stateFind {
		n.test()
	}
}

// test is procedure (4).
func (n *ghsNode) test() {
	if n.hasEdgeState(edgeBasic) {
		n.testEdge = n.minEdge(func(st edgeState) bool { return st == edgeBasic })
		n.hasTest = true
		n.alg.send(n.id, n.testEdge, msgTest{Level: n.level, Fragment: n.fragment})
		return
	}
	n.hasTest = false
	n.report()
}

// onTest is procedure (5).
func (n *ghsNode) onTest(j graph.NodeID, m msgTest) bool {
	if n.state == stateSleeping {
		n.wakeup()
	}
	if m.Level > n.level {
		return false // defer
	}
	if m.Fragment != n.fragment {
		n.alg.send(n.id, j, msgAccept{})
		return true
	}
	if n.edges[j] == edgeBasic {
		n.edges[j] = edgeRejected
	}
	if !n.hasTest || n.testEdge != j {
		n.alg.send(n.id, j, msgReject{})
	} else {
		n.test()
	}
	return true
}

// onAccept is procedure (6).
func (n *ghsNode) onAccept(j graph.NodeID) {
	n.hasTest = false
	if n.weights[j] < n.bestWt {
		n.bestEdge = j
		n.bestWt = n.weights[j]
	}
	n.report()
}

// onReject is procedure (7).
func (n *ghsNode) onReject(j graph.NodeID) {
	if n.edges[j] == edgeBasic {
		n.edges[j] = edgeRejected
	}
	n.test()
}

// report is procedure (8).
func (n *ghsNode) report() {
	if n.findCnt == 0 && !n.hasTest {
		n.state = stateFound
		n.alg.send(n.id, n.inBranch, msgReport{Weight: n.bestWt})
	}
}

// onReport is procedure (9).
func (n *ghsNode) onReport(j graph.NodeID, m msgReport) bool {
	if j != n.inBranch {
		n.findCnt--
		if m.Weight < n.bestWt {
			n.bestWt = m.Weight
			n.bestEdge = j
		}
		n.report()
		return true
	}
	if n.state == stateFind {
		return false // defer
	}
	if m.Weight > n.bestWt {
		n.changeRoot()
		return true
	}
	if math.IsInf(m.Weight, 1) && math.IsInf(n.bestWt, 1) {
		n.alg.halted = true // MST complete
	}
	return true
}

// changeRoot is procedure (10).
func (n *ghsNode) changeRoot() {
	if n.edges[n.bestEdge] == edgeBranch {
		n.alg.send(n.id, n.bestEdge, msgChangeRoot{})
		return
	}
	n.alg.send(n.id, n.bestEdge, msgConnect{Level: n.level})
	n.edges[n.bestEdge] = edgeBranch
}
