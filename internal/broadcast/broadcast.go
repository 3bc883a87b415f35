// Package broadcast implements mass distribution and searching over a
// spanning tree, the mechanism of the paper's attribute-based mail system
// (§3.3.1).
//
// A query enters at any tree node and propagates down the tree ("upon
// receiving a request from the parent node in the MST, each node sends the
// message to its children nodes"). Responses converge back up: each node
// "waits for the messages to come back from all the children nodes. It then
// combines them into a single summary message and returns it to its parent
// node." A parent times out on dead children and marks their estimates
// unavailable, exactly as §3.3.1-B prescribes.
//
// Queries can be restricted to target regions; the tree is pruned so
// branches leading only to non-target regions carry no traffic — this is the
// flow-control lever of §3.3.1-B, where a sender picks regions from the cost
// table to stay within budget.
package broadcast

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// Errors reported by the package.
var (
	ErrUnknownNode = errors.New("broadcast: node is not part of the tree")
	ErrNodeDown    = errors.New("broadcast: origin node is down")
)

// Evaluator computes a node's local contribution to a query — for the mail
// system, the users on this node matching the attribute predicate. It must
// not retain query, and the slice it returns becomes the tree's (see
// SummaryOf.Items): the evaluator keeps no reference to it.
type Evaluator[T any] func(node graph.NodeID, query any) []T

// Query is the downward message.
type Query struct {
	ID      uint64
	Origin  graph.NodeID
	Payload any
	// Targets restricts evaluation and propagation to these regions;
	// nil means everywhere.
	Targets map[string]bool
	// Prune lets nodes skip child branches whose cached subtree sketch
	// proves no match (see prune.go). Set by Distribute, never by Start, so
	// existing callers keep exhaustive semantics.
	Prune bool
}

// SummaryOf is the upward message: one child subtree's combined response.
type SummaryOf[T any] struct {
	ID   uint64
	From graph.NodeID
	// Items are the subtree's matches, in no specified order. A summary owns
	// its items for exactly one flight; finish and Take give them away — to
	// the parent, which appends to whichever slice is longer, and to Take's
	// caller. Copy out what you keep.
	Items []T
	// Unavailable lists nodes whose subtrees timed out ("the unavailable
	// estimates can be marked so").
	Unavailable []graph.NodeID
	// Nodes counts the nodes that evaluated the query.
	Nodes int
	// Pruned lists the roots of subtrees skipped because their cached term
	// sketch proved no match below — excused by proof, unlike Unavailable's
	// excused-by-timeout. Audits treat the two very differently: a pruned
	// subtree that actually held a match is a correctness violation.
	Pruned []graph.NodeID
	// PrunedNodes counts the nodes under those roots.
	PrunedNodes int
}

// TreeOf runs broadcast/convergecast over a fixed spanning tree on a simulated
// network, collecting items of type T. It registers one process per tree node.
type TreeOf[T any] struct {
	net     *netsim.Network
	adj     map[graph.NodeID][]graph.NodeID
	regions map[graph.NodeID]string
	// regionsVia[n][nb] is the set of regions reachable from n through
	// neighbor nb — used to prune targeted queries.
	regionsVia map[graph.NodeID]map[graph.NodeID]map[string]bool
	// depthVia[n][nb] is the depth in edges of the deepest path from n
	// through neighbor nb. A parent's wait for a child scales with this
	// depth, so a slow-but-healthy deep subtree is not falsely marked
	// unavailable while a dead immediate child is still detected after one
	// base timeout.
	depthVia map[graph.NodeID]map[graph.NodeID]int
	eval     Evaluator[T]
	timeout  sim.Time
	nodes    map[graph.NodeID]*bcastNode[T]
	nextID   uint64
	// queries is the one table of queries started and not yet taken: each
	// entry is the origin's own pending record, which collects the result and
	// the pruning ledger and stays here, finished, until Take.
	queries map[uint64]*pendingQuery[T]
	// late absorbs ledger entries of a query already taken (a node behind a
	// slow link deciding its branches after the origin gave up on it).
	late PruneStats

	// What a query puts in the air and on the nodes is recycled: a completed
	// query leaves nothing behind.
	free      []*pendingQuery[T]
	queryBox  netsim.FreeList[Query]
	summaries netsim.FreeList[SummaryOf[T]]

	// Sketch-pruning state (see prune.go). nodesVia[n][nb] lists every node
	// in the subtree hanging off n through nb; sketchVia/genVia cache that
	// subtree's aggregated term sketch and the generation sum it was built
	// at. Nil hooks disable pruning entirely.
	sketchFn    func(graph.NodeID) (*sketch.Filter, uint64)
	sketchGenFn func(graph.NodeID) uint64
	nodesVia    map[graph.NodeID]map[graph.NodeID][]graph.NodeID
	sketchVia   map[graph.NodeID]map[graph.NodeID]*sketch.Filter
	genVia      map[graph.NodeID]map[graph.NodeID]uint64
}

// ConfigOf configures SetupOf.
type ConfigOf[T any] struct {
	Net  *netsim.Network
	Tree graph.Tree
	// Eval computes local matches; nil means "no local items".
	Eval Evaluator[T]
	// Timeout is how long a parent waits for a child's summary before
	// marking the subtree unavailable. Zero means 50 paper time units.
	Timeout sim.Time
	// Sketch returns a node's current term sketch snapshot and staleness
	// generation (typically mailstore.Store.Sketch). Nil disables pruning;
	// Distribute then behaves exactly like Start.
	Sketch func(graph.NodeID) (*sketch.Filter, uint64)
	// SketchGen returns only the generation — the cheap freshness probe
	// consulted on every prune decision (typically Store.SketchGen). Must
	// be non-nil whenever Sketch is.
	SketchGen func(graph.NodeID) uint64
}

// Tree, Config, Summary and Setup are the mail system's tree: its items are
// UserMatch.
type (
	Tree    = TreeOf[UserMatch]
	Config  = ConfigOf[UserMatch]
	Summary = SummaryOf[UserMatch]
)

// Setup is SetupOf for the mail system's item type.
func Setup(cfg Config) (*Tree, error) { return SetupOf(cfg) }

// SetupOf registers a broadcast process on every node of the tree.
func SetupOf[T any](cfg ConfigOf[T]) (*TreeOf[T], error) {
	if cfg.Net == nil {
		return nil, errors.New("broadcast: nil network")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 50 * sim.Unit
	}
	if cfg.Eval == nil {
		cfg.Eval = func(graph.NodeID, any) []T { return nil }
	}
	t := &TreeOf[T]{
		net:         cfg.Net,
		adj:         cfg.Tree.Adjacency(),
		regions:     make(map[graph.NodeID]string),
		regionsVia:  make(map[graph.NodeID]map[graph.NodeID]map[string]bool),
		depthVia:    make(map[graph.NodeID]map[graph.NodeID]int),
		eval:        cfg.Eval,
		timeout:     cfg.Timeout,
		nodes:       make(map[graph.NodeID]*bcastNode[T]),
		queries:     make(map[uint64]*pendingQuery[T]),
		sketchFn:    cfg.Sketch,
		sketchGenFn: cfg.SketchGen,
		nodesVia:    make(map[graph.NodeID]map[graph.NodeID][]graph.NodeID),
		sketchVia:   make(map[graph.NodeID]map[graph.NodeID]*sketch.Filter),
		genVia:      make(map[graph.NodeID]map[graph.NodeID]uint64),
	}
	if t.sketchFn != nil && t.sketchGenFn == nil {
		return nil, errors.New("broadcast: Sketch hook without SketchGen")
	}
	ids := make([]graph.NodeID, 0, len(t.adj))
	for id := range t.adj {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, errors.New("broadcast: empty tree")
	}
	slices.Sort(ids)
	for _, id := range ids {
		n, ok := cfg.Net.Topology().Node(id)
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
		}
		t.regions[id] = n.Region
	}
	t.computeRegionsVia(ids)
	for _, id := range ids {
		bn := &bcastNode[T]{id: id, tree: t, pending: make(map[uint64]*pendingQuery[T])}
		if err := cfg.Net.Register(id, bn); err != nil {
			return nil, err
		}
		t.nodes[id] = bn
	}
	return t, nil
}

// computeRegionsVia fills the per-direction region reachability sets by DFS
// from every node (trees are small relative to query volume; this is a
// one-time cost).
func (t *TreeOf[T]) computeRegionsVia(ids []graph.NodeID) {
	var collect func(at, from graph.NodeID, acc map[string]bool) int
	collect = func(at, from graph.NodeID, acc map[string]bool) int {
		acc[t.regions[at]] = true
		depth := 1
		for _, nb := range t.adj[at] {
			if nb != from {
				if d := 1 + collect(nb, at, acc); d > depth {
					depth = d
				}
			}
		}
		return depth
	}
	for _, id := range ids {
		t.regionsVia[id] = make(map[graph.NodeID]map[string]bool)
		t.depthVia[id] = make(map[graph.NodeID]int)
		t.nodesVia[id] = make(map[graph.NodeID][]graph.NodeID)
		t.sketchVia[id] = make(map[graph.NodeID]*sketch.Filter)
		t.genVia[id] = make(map[graph.NodeID]uint64)
		for _, nb := range t.adj[id] {
			acc := make(map[string]bool)
			t.depthVia[id][nb] = collect(nb, id, acc)
			t.regionsVia[id][nb] = acc
			t.nodesVia[id][nb] = t.collectNodes(nb, id, nil)
		}
	}
}

// collectNodes lists the subtree reached from `from` through `at`, the node
// set a cached subtree sketch summarises (and the set excused-by-proof when
// that branch is pruned).
func (t *TreeOf[T]) collectNodes(at, from graph.NodeID, acc []graph.NodeID) []graph.NodeID {
	acc = append(acc, at)
	for _, nb := range t.adj[at] {
		if nb != from {
			acc = t.collectNodes(nb, at, acc)
		}
	}
	return acc
}

// wantBranch reports whether a targeted query needs to travel from node to
// neighbor nb.
func (t *TreeOf[T]) wantBranch(node, nb graph.NodeID, targets map[string]bool) bool {
	if targets == nil {
		return true
	}
	for region := range t.regionsVia[node][nb] {
		if targets[region] {
			return true
		}
	}
	return false
}

// Start injects a query at origin. Targets of nil means all regions. It
// returns the query ID; the result is available via Take once the
// convergecast completes (run the scheduler).
func (t *TreeOf[T]) Start(origin graph.NodeID, payload any, targets map[string]bool) (uint64, error) {
	return t.start(origin, payload, targets, false)
}

func (t *TreeOf[T]) start(origin graph.NodeID, payload any, targets map[string]bool, prune bool) (uint64, error) {
	node, ok := t.nodes[origin]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, origin)
	}
	if !t.net.IsUp(origin) {
		return 0, fmt.Errorf("%w: %d", ErrNodeDown, origin)
	}
	t.nextID++
	// The origin is its own parent: the sentinel finish and begin know it by.
	node.begin(Query{ID: t.nextID, Origin: origin, Payload: payload, Targets: targets, Prune: prune}, origin)
	return t.nextID, nil
}

// Take returns a completed query's summary, the simulated time the
// convergecast finished at the origin — what the bounded-completion auditor
// checks against the depth-scaled timeout — and its pruning ledger, and
// forgets the query: the summary's slices are the caller's from here on, and
// a second Take of the same ID reports false, as does one of a query still in
// progress.
func (t *TreeOf[T]) Take(id uint64) (SummaryOf[T], sim.Time, PruneStats, bool) {
	pq := t.queries[id]
	if pq == nil || !pq.done {
		return SummaryOf[T]{}, 0, PruneStats{}, false
	}
	delete(t.queries, id)
	s, at, st := pq.summary(), pq.at, pq.stats
	t.release(pq)
	return s, at, st, true
}

// MaxDepthFrom returns the depth in edges of the deepest subtree below
// origin — the factor the origin's own wait scales with, and therefore the
// worst-case convergecast bound multiplier.
func (t *TreeOf[T]) MaxDepthFrom(origin graph.NodeID) int {
	max := 0
	for _, d := range t.depthVia[origin] {
		if d > max {
			max = d
		}
	}
	return max
}

// bcastNode is the per-node broadcast process.
type bcastNode[T any] struct {
	id      graph.NodeID
	tree    *TreeOf[T]
	pending map[uint64]*pendingQuery[T]
}

// pendingQuery is one node's state for one query, from the Query's arrival
// until the node's summary leaves (at the origin: until Take). The record is
// recycled through the tree's free list, and it is its own timeout: ev is the
// timer and Run what it fires.
type pendingQuery[T any] struct {
	ev      sim.Event
	node    *bcastNode[T]
	id      uint64
	parent  graph.NodeID
	waiting []graph.NodeID
	items   []T
	unavail []graph.NodeID
	nodes   int
	// pruned/prunedNodes accumulate this node's own sketch-pruned branches
	// plus those reported by children; passed lists children whose subtree
	// sketch claimed a possible match, so an empty summary from them can be
	// counted as a Bloom false positive.
	pruned      []graph.NodeID
	prunedNodes int
	passed      []graph.NodeID
	// Origin only: the whole query's pruning ledger, and whether the
	// convergecast is complete (at time at) and the record awaits Take.
	stats PruneStats
	done  bool
	at    sim.Time
}

func (t *TreeOf[T]) newPending(n *bcastNode[T], id uint64, parent graph.NodeID) *pendingQuery[T] {
	var pq *pendingQuery[T]
	if last := len(t.free) - 1; last >= 0 {
		pq, t.free = t.free[last], t.free[:last]
	} else {
		pq = new(pendingQuery[T])
	}
	pq.node, pq.id, pq.parent = n, id, parent
	return pq
}

// release recycles a record whose slices have been given away (or, for
// waiting and passed, emptied for the next tenant).
func (t *TreeOf[T]) release(pq *pendingQuery[T]) {
	*pq = pendingQuery[T]{waiting: pq.waiting[:0], passed: pq.passed[:0]}
	t.free = append(t.free, pq)
}

// summary hands the record's collected result over.
func (pq *pendingQuery[T]) summary() SummaryOf[T] {
	return SummaryOf[T]{
		ID: pq.id, From: pq.node.id, Items: pq.items, Unavailable: pq.unavail,
		Nodes: pq.nodes, Pruned: pq.pruned, PrunedNodes: pq.prunedNodes,
	}
}

// Receive implements netsim.Handler.
func (n *bcastNode[T]) Receive(env netsim.Envelope) {
	switch p := env.Payload.(type) {
	case *netsim.Box[Query]:
		n.begin(p.V, env.From)
	case *netsim.Box[SummaryOf[T]]:
		n.onSummary(&p.V, env.From)
	}
}

// begin evaluates the query locally and fans it out to child branches.
func (n *bcastNode[T]) begin(q Query, parent graph.NodeID) {
	if _, dup := n.pending[q.ID]; dup {
		// The query is already in progress here. Once answered its ID is
		// forgotten, with no tombstone: a parent sends each child one Query per
		// ID and netsim drops but never duplicates.
		return
	}
	t := n.tree
	pq := t.newPending(n, q.ID, parent)
	n.pending[q.ID] = pq
	if parent == n.id {
		t.queries[q.ID] = pq
	}
	if q.Targets == nil || q.Targets[t.regions[n.id]] {
		pq.items = t.eval(n.id, q.Payload)
		pq.nodes = 1
	}
	probe := t.probeTerms(q)
	// Wait proportionally to the deepest awaited subtree, so descendants'
	// own timeouts can resolve before this node gives up on them.
	maxDepth := 1
	for _, nb := range t.adj[n.id] {
		if nb == parent || nb == n.id || !t.wantBranch(n.id, nb, q.Targets) {
			continue
		}
		if probe != nil {
			switch verdict, covered := t.checkBranch(n.id, nb, probe, t.pruneStats(q.ID)); verdict {
			case branchPrune:
				pq.pruned = append(pq.pruned, nb)
				pq.prunedNodes += covered
				continue
			case branchPass:
				pq.passed = append(pq.passed, nb)
			}
		}
		pq.waiting = append(pq.waiting, nb)
		if d := t.depthVia[n.id][nb]; d > maxDepth {
			maxDepth = d
		}
		_ = t.net.Send(n.id, nb, t.queryBox.Box(q))
	}
	if len(pq.waiting) == 0 {
		n.finish(pq)
		return
	}
	sched := t.net.Scheduler()
	sched.Schedule(&pq.ev, sched.Now()+t.timeout*sim.Time(maxDepth), pq)
}

func (n *bcastNode[T]) onSummary(s *SummaryOf[T], from graph.NodeID) {
	pq, ok := n.pending[s.ID]
	if !ok {
		return // late summary; subtree already marked unavailable
	}
	i := slices.Index(pq.waiting, from)
	if i < 0 {
		return // unexpected summary
	}
	pq.waiting = slices.Delete(pq.waiting, i, i+1)
	if len(s.Items) == 0 && len(s.Unavailable) == 0 && slices.Contains(pq.passed, from) {
		// The subtree sketch said "maybe" but the whole subtree held
		// nothing: a Bloom false positive we paid a visit for.
		n.tree.pruneStats(s.ID).FPSubtrees++
	}
	// Adopt the longer of the two item slices and append the shorter, so an
	// item is copied O(1) times on its way up and not once per level.
	if len(s.Items) > len(pq.items) {
		pq.items, s.Items = s.Items, pq.items
	}
	pq.items = append(pq.items, s.Items...)
	pq.unavail = append(pq.unavail, s.Unavailable...)
	pq.nodes += s.Nodes
	pq.pruned = append(pq.pruned, s.Pruned...)
	pq.prunedNodes += s.PrunedNodes
	if len(pq.waiting) == 0 {
		n.tree.net.Scheduler().Cancel(&pq.ev)
		n.finish(pq)
	}
}

// Run is the timeout: the node gives up on the remaining children, marking
// them unavailable ("problem may occur if one of the children nodes goes down
// while the parent node is waiting ... a parent node should time out").
func (pq *pendingQuery[T]) Run() {
	slices.Sort(pq.waiting)
	pq.unavail = append(pq.unavail, pq.waiting...)
	pq.node.finish(pq)
}

// finish sends the combined summary to the parent and forgets the query, or
// at the origin marks the record complete for Take. Either way the node's
// table no longer knows the ID: a summary that arrives from now on is late.
func (n *bcastNode[T]) finish(pq *pendingQuery[T]) {
	delete(n.pending, pq.id)
	t := n.tree
	if pq.parent == n.id {
		pq.done, pq.at = true, t.net.Scheduler().Now()
		return
	}
	b := t.summaries.Box(pq.summary())
	parent := pq.parent
	t.release(pq)
	_ = t.net.Send(n.id, parent, b)
}

// SelectRegions is the budget flow control of §3.3.1-B: given the cost table
// and a budget, it greedily picks the cheapest regions whose cumulative cost
// stays within budget ("based on the detailed estimate of charges and
// traffic volume, the user can select his recipients and the level of search
// he wants"). The source region's own row costs its local weight and is
// always considered first if affordable.
func SelectRegions(rows []mst.RegionCostRow, budget float64) (map[string]bool, float64) {
	sorted := append([]mst.RegionCostRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total != sorted[j].Total {
			return sorted[i].Total < sorted[j].Total
		}
		return sorted[i].Region < sorted[j].Region
	})
	chosen := make(map[string]bool)
	var cost float64
	for _, r := range sorted {
		if !r.Reachable {
			continue
		}
		if cost+r.Total > budget {
			continue
		}
		chosen[r.Region] = true
		cost += r.Total
	}
	return chosen, cost
}
