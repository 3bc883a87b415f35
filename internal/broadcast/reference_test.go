package broadcast

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// refTree is the convergecast as it stood before the tree became typed and
// handed-over: items boxed into []any and copied again at every level, Query
// and Summary sent as values, a closure timer, a waiting map per node and
// query, and tables that remember every query ever asked. It is the model the
// tree is held to: same schedule in, same answers out. Only the static tables
// (adjacency, regions, depths, cached subtree sketches and the prune verdict
// read from them) are borrowed from a TreeOf, whose own processes are
// deregistered.
type refTree struct {
	t           *TreeOf[string]
	net         *netsim.Network
	eval        func(graph.NodeID, any) []any
	nodes       map[graph.NodeID]*refNode
	nextID      uint64
	results     map[uint64]refSummary
	completedAt map[uint64]sim.Time
	pstats      map[uint64]*PruneStats
}

type refSummary struct {
	ID          uint64
	Items       []any
	Unavailable []graph.NodeID
	Nodes       int
	Pruned      []graph.NodeID
	PrunedNodes int
}

type refNode struct {
	id      graph.NodeID
	tree    *refTree
	pending map[uint64]*refPending
}

type refPending struct {
	parent       graph.NodeID
	waiting      map[graph.NodeID]bool
	items        []any
	unavail      []graph.NodeID
	nodes        int
	timer        *sim.Event
	finished     bool
	pruned       []graph.NodeID
	prunedNodes  int
	sketchPassed map[graph.NodeID]bool
}

func newRefTree(t *testing.T, cfg ConfigOf[string]) *refTree {
	t.Helper()
	eval := cfg.Eval
	static, err := SetupOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &refTree{
		t: static, net: cfg.Net,
		eval: func(id graph.NodeID, q any) []any {
			var out []any
			for _, it := range eval(id, q) {
				out = append(out, it)
			}
			return out
		},
		nodes:       make(map[graph.NodeID]*refNode),
		results:     make(map[uint64]refSummary),
		completedAt: make(map[uint64]sim.Time),
		pstats:      make(map[uint64]*PruneStats),
	}
	for id := range static.adj {
		cfg.Net.Deregister(id)
		r.nodes[id] = &refNode{id: id, tree: r, pending: make(map[uint64]*refPending)}
		cfg.Net.MustRegister(id, r.nodes[id])
	}
	return r
}

func (r *refTree) start(origin graph.NodeID, payload any, targets map[string]bool, prune bool) (uint64, error) {
	node, ok := r.nodes[origin]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, origin)
	}
	if !r.net.IsUp(origin) {
		return 0, fmt.Errorf("%w: %d", ErrNodeDown, origin)
	}
	r.nextID++
	node.begin(Query{ID: r.nextID, Origin: origin, Payload: payload, Targets: targets, Prune: prune}, origin)
	return r.nextID, nil
}

func (r *refTree) pruneStats(id uint64) *PruneStats {
	if r.pstats[id] == nil {
		r.pstats[id] = &PruneStats{}
	}
	return r.pstats[id]
}

func (n *refNode) Receive(env netsim.Envelope) {
	switch p := env.Payload.(type) {
	case Query:
		n.begin(p, env.From)
	case refSummary:
		n.onSummary(p, env.From)
	}
}

func (n *refNode) begin(q Query, parent graph.NodeID) {
	if _, dup := n.pending[q.ID]; dup {
		return
	}
	t := n.tree.t
	pq := &refPending{parent: parent, waiting: make(map[graph.NodeID]bool)}
	n.pending[q.ID] = pq
	if q.Targets == nil || q.Targets[t.regions[n.id]] {
		pq.items = append(pq.items, n.tree.eval(n.id, q.Payload)...)
		pq.nodes = 1
	}
	probe := t.probeTerms(q)
	for _, nb := range t.adj[n.id] {
		if nb == parent && parent != n.id {
			continue
		}
		if nb == n.id || !t.wantBranch(n.id, nb, q.Targets) {
			continue
		}
		if probe != nil {
			switch verdict, covered := t.checkBranch(n.id, nb, probe, n.tree.pruneStats(q.ID)); verdict {
			case branchPrune:
				pq.pruned = append(pq.pruned, nb)
				pq.prunedNodes += covered
				continue
			case branchPass:
				if pq.sketchPassed == nil {
					pq.sketchPassed = make(map[graph.NodeID]bool)
				}
				pq.sketchPassed[nb] = true
			}
		}
		pq.waiting[nb] = true
		_ = n.tree.net.Send(n.id, nb, q)
	}
	if len(pq.waiting) == 0 {
		n.finish(q.ID, pq)
		return
	}
	maxDepth := 1
	for nb := range pq.waiting {
		if d := t.depthVia[n.id][nb]; d > maxDepth {
			maxDepth = d
		}
	}
	pq.timer = n.tree.net.Scheduler().After(t.timeout*sim.Time(maxDepth), func() { n.onTimeout(q.ID) })
}

func (n *refNode) onSummary(s refSummary, from graph.NodeID) {
	pq, ok := n.pending[s.ID]
	if !ok || pq.finished || !pq.waiting[from] {
		return
	}
	delete(pq.waiting, from)
	pq.items = append(pq.items, s.Items...)
	pq.unavail = append(pq.unavail, s.Unavailable...)
	pq.nodes += s.Nodes
	pq.pruned = append(pq.pruned, s.Pruned...)
	pq.prunedNodes += s.PrunedNodes
	if pq.sketchPassed[from] && len(s.Items) == 0 && len(s.Unavailable) == 0 {
		n.tree.pruneStats(s.ID).FPSubtrees++
	}
	if len(pq.waiting) == 0 {
		n.tree.net.Scheduler().Cancel(pq.timer)
		n.finish(s.ID, pq)
	}
}

func (n *refNode) onTimeout(id uint64) {
	pq, ok := n.pending[id]
	if !ok || pq.finished {
		return
	}
	missing := make([]graph.NodeID, 0, len(pq.waiting))
	for nb := range pq.waiting {
		missing = append(missing, nb)
	}
	slices.Sort(missing)
	pq.unavail = append(pq.unavail, missing...)
	pq.waiting = make(map[graph.NodeID]bool)
	n.finish(id, pq)
}

func (n *refNode) finish(id uint64, pq *refPending) {
	pq.finished = true
	s := refSummary{
		ID: id, Items: pq.items, Unavailable: pq.unavail,
		Nodes: pq.nodes, Pruned: pq.pruned, PrunedNodes: pq.prunedNodes,
	}
	if pq.parent == n.id {
		n.tree.results[id] = s
		n.tree.completedAt[id] = n.tree.net.Scheduler().Now()
		return
	}
	_ = n.tree.net.Send(n.id, pq.parent, s)
}

// outcome is everything a caller can learn about one query.
type outcome struct {
	ID          uint64
	Items       []string // sorted: the order of a summary's items is unspecified
	Unavailable []graph.NodeID
	Nodes       int
	Pruned      []graph.NodeID
	PrunedNodes int
	Stats       PruneStats
	At          sim.Time
}

// caster is the surface the schedules drive: the tree, or its model.
type caster interface {
	start(origin graph.NodeID, payload any, targets map[string]bool, prune bool) (uint64, error)
	take(id uint64) (outcome, bool)
	RefreshSketches() int
}

type treeCaster struct {
	*TreeOf[string]
	scribble bool
}

func (c treeCaster) take(id uint64) (outcome, bool) {
	s, at, st, ok := c.Take(id)
	if !ok {
		return outcome{}, false
	}
	o := outcome{
		ID: s.ID, Items: slices.Clone(s.Items), Unavailable: slices.Clone(s.Unavailable), Nodes: s.Nodes,
		Pruned: slices.Clone(s.Pruned), PrunedNodes: s.PrunedNodes, Stats: st, At: at,
	}
	sort.Strings(o.Items)
	if c.scribble {
		// Take gave the slices away: whatever the caller does to them, to the
		// end of their capacity, no later query may notice.
		items := s.Items[:cap(s.Items)]
		for i := range items {
			items[i] = "scribbled"
		}
		for _, ids := range [][]graph.NodeID{s.Unavailable, s.Pruned} {
			ids = ids[:cap(ids)]
			for i := range ids {
				ids[i] = 4242
			}
		}
	}
	return o, true
}

func (r *refTree) RefreshSketches() int { return r.t.RefreshSketches() }

func (r *refTree) take(id uint64) (outcome, bool) {
	s, ok := r.results[id]
	if !ok {
		return outcome{}, false
	}
	o := outcome{
		ID: s.ID, Unavailable: slices.Clone(s.Unavailable), Nodes: s.Nodes,
		Pruned: slices.Clone(s.Pruned), PrunedNodes: s.PrunedNodes, At: r.completedAt[id],
	}
	if st := r.pstats[id]; st != nil {
		o.Stats = *st
	}
	for _, it := range s.Items {
		o.Items = append(o.Items, it.(string))
	}
	sort.Strings(o.Items)
	delete(r.results, id) // so that a second take reports false, as Take does
	return o, true
}

// refProbe is the payload of the schedules: Seq names the query (the
// evaluator sees no ID), Terms make it a content search that Distribute may
// prune; without terms every node answers Width[node] items.
type refProbe struct {
	Seq   int
	Terms []string
}

func (p refProbe) SketchTerms() []string { return p.Terms }

// refWorld is one network with a term-indexed store per node and a caster on
// a spanning tree of it.
type refWorld struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	ids    []graph.NodeID
	stores map[graph.NodeID]*mailstore.Store
	cast   caster
	tree   *TreeOf[string] // nil for the model
	// evals counts evaluations per (node, query): more than one means a node
	// began the same query twice.
	evals map[[2]int]int
	seq   uint64
}

const refTimeout = 20 * sim.Unit

var refTerms = []string{"budget", "offsite", "seminar", "deadline", "picnic"}

// newRefWorld builds the topology named by topo from rng: the six-node line
// of testTree, a random tree of 8–19 nodes over three regions, or the
// back-bone MST of a 3 × 5 multi-region graph.
func newRefWorld(t *testing.T, topo string, rng *rand.Rand, model, poison bool) *refWorld {
	t.Helper()
	g := graph.New()
	var tr graph.Tree
	edge := func(a, b graph.NodeID, w float64) {
		g.MustAddEdge(a, b, w)
		tr.Edges = append(tr.Edges, graph.Edge{A: a, B: b, Weight: w})
		tr.Weight += w
	}
	switch topo {
	case "line":
		for i := 1; i <= 6; i++ {
			g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: string(rune('A' + (i-1)/2))})
			if i > 1 {
				edge(graph.NodeID(i-1), graph.NodeID(i), float64(i-1))
			}
		}
	case "random":
		n := 8 + rng.Intn(12)
		for i := 1; i <= n; i++ {
			g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: string(rune('A' + i%3))})
			if i > 1 {
				edge(graph.NodeID(i), graph.NodeID(1+rng.Intn(i-1)), 1+float64(rng.Intn(3)))
			}
		}
	case "backbone":
		g = graph.MultiRegion(rng, graph.MultiRegionSpec{Regions: 3, NodesPerRegion: 5, ExtraIntra: 2, InterLinks: 2})
		res, err := mst.Backbone(g, false)
		if err != nil {
			t.Fatal(err)
		}
		tr = res.Combined
	}
	w := &refWorld{
		sched: sim.New(7), ids: g.NodeIDs(),
		stores: make(map[graph.NodeID]*mailstore.Store), evals: make(map[[2]int]int),
	}
	w.net = netsim.New(w.sched, g)
	width := make(map[graph.NodeID]int)
	for _, id := range w.ids {
		w.stores[id] = mailstore.New(2)
		w.stores[id].EnableTermIndex()
		width[id] = rng.Intn(4) // 0–3 items, so that parents adopt some child slices and keep their own against others
	}
	cfg := ConfigOf[string]{
		Net: w.net, Tree: tr, Timeout: refTimeout,
		Eval: func(id graph.NodeID, q any) []string {
			p := q.(refProbe)
			w.evals[[2]int{int(id), p.Seq}]++
			var out []string
			if p.Terms == nil {
				for i := 0; i < width[id]; i++ {
					out = append(out, fmt.Sprintf("n%d#%d:%d", id, i, p.Seq))
				}
			}
			for _, h := range w.stores[id].SearchTerms(p.Terms) {
				out = append(out, fmt.Sprintf("%s@%d", h.User, id))
			}
			return out
		},
		Sketch:    func(id graph.NodeID) (*sketch.Filter, uint64) { return w.stores[id].Sketch() },
		SketchGen: func(id graph.NodeID) uint64 { return w.stores[id].SketchGen() },
	}
	if model {
		w.cast = newRefTree(t, cfg)
		return w
	}
	bt, err := SetupOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.tree, w.cast = bt, treeCaster{bt, poison}
	if poison {
		w.net.AfterRecycle(poisonBox)
	}
	return w
}

// poisonBox overwrites every box the network hands back with a plausible
// wrong message where production leaves zeros: a handler that kept a pointer
// into a box past Receive would merge junk items into a live query, or start
// one nobody asked.
func poisonBox(payload any) {
	switch b := payload.(type) {
	case *netsim.Box[Query]:
		b.V = Query{ID: 1, Origin: 1, Payload: refProbe{Seq: -1}, Prune: true}
	case *netsim.Box[SummaryOf[string]]:
		b.V = SummaryOf[string]{ID: 1, From: 2, Items: junkItems, Unavailable: junkNodes, Nodes: 1000, Pruned: junkNodes, PrunedNodes: 1000}
	}
}

var (
	junkItems = []string{"poison", "poison", "poison", "poison", "poison"}
	junkNodes = []graph.NodeID{666, 667}
)

func (w *refWorld) node(rng *rand.Rand) graph.NodeID { return w.ids[rng.Intn(len(w.ids))] }

func (w *refWorld) deposit(node graph.NodeID, user int, body string) {
	w.seq++
	w.stores[node].Deposit(
		names.Name{Region: "A", Host: "h", User: fmt.Sprintf("u%d", user)},
		mail.Message{ID: mail.MessageID{Node: node, Seq: w.seq}, Subject: "s", Body: body},
		w.sched.Now(),
	)
}

// refFaults are the fault cases of this package's tests, one per round:
// a node killed before the query leaves (TestConvergecastUnderNodeKill), one
// killed with the query in flight (…MidFlightCrash), latency that makes
// summaries arrive after the parent gave up (TestLateSummaryIgnored), a
// deposit behind a fresh aggregation (TestStaleSketchFailsOpen), and lossy
// delivery. "mixed" draws one of them each round.
var refFaults = []string{"clean", "kill", "midflight", "latency", "stale", "drops", "mixed"}

// runRefSchedule drives one world through 14 rounds of deposits, drains,
// aggregations, one fault and one to three queries, taking every result as
// soon as it is there, and returns the outcomes in query order. The schedule
// is a function of (topo, fault, seed) alone.
func runRefSchedule(t *testing.T, topo, fault string, seed int64, model, poison bool) []outcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newRefWorld(t, topo, rng, model, poison)
	var open []uint64
	var out []outcome
	harvest := func() {
		rest := open[:0]
		for _, id := range open {
			if o, ok := w.cast.take(id); ok {
				out = append(out, o)
			} else {
				rest = append(rest, id)
			}
		}
		open = rest
	}
	seq := 0
	for round := 0; round < 14; round++ {
		for i := rng.Intn(4); i > 0; i-- {
			w.deposit(w.node(rng), rng.Intn(30), refTerms[rng.Intn(len(refTerms))]+" "+refTerms[rng.Intn(len(refTerms))])
		}
		if rng.Intn(4) == 0 {
			w.stores[w.node(rng)].Drain(names.Name{Region: "A", Host: "h", User: fmt.Sprintf("u%d", rng.Intn(30))})
		}
		if rng.Intn(2) == 0 {
			w.cast.RefreshSketches()
		}
		f := fault
		if f == "mixed" {
			f = refFaults[rng.Intn(len(refFaults)-1)]
		}
		victim := w.node(rng)
		switch f {
		case "kill":
			w.net.Crash(victim)
		case "latency":
			w.net.SetExtraDelay(victim, sim.Time(1+rng.Intn(3))*refTimeout)
		case "stale":
			w.cast.RefreshSketches()
			w.deposit(victim, rng.Intn(30), refTerms[rng.Intn(len(refTerms))])
		case "drops":
			w.net.SetDropProb(victim, 0.5)
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			seq++
			p := refProbe{Seq: seq}
			if rng.Intn(3) > 0 {
				p.Terms = []string{refTerms[rng.Intn(len(refTerms))]}
				if rng.Intn(3) == 0 {
					p.Terms = append(p.Terms, refTerms[rng.Intn(len(refTerms))])
				}
			}
			var targets map[string]bool
			if rng.Intn(4) == 0 {
				targets = map[string]bool{"A": true, "R1": true, "C": rng.Intn(2) == 0}
			}
			if id, err := w.cast.start(w.node(rng), p, targets, rng.Intn(4) > 0); err == nil {
				open = append(open, id)
			}
			w.sched.RunFor(sim.Time(rng.Intn(4)) * sim.Unit)
		}
		if f == "midflight" {
			w.net.Crash(victim)
		}
		// Run a random stretch only, so that queries of successive rounds
		// overlap and late messages land after their query was taken.
		w.sched.RunFor(sim.Time(rng.Intn(8)) * refTimeout)
		harvest()
		w.net.Recover(victim)
		w.net.SetExtraDelay(victim, 0)
		w.net.SetDropProb(victim, 0)
	}
	w.sched.Run()
	harvest()
	if len(open) > 0 {
		t.Errorf("%s/%s/%d: queries %v never completed", topo, fault, seed, open)
	}
	for k, n := range w.evals {
		if n > 1 {
			t.Errorf("%s/%s/%d: node %d evaluated query %d %d times", topo, fault, seed, k[0], k[1], n)
		}
	}
	if w.tree != nil {
		assertNothingPending(t, w.tree)
	}
	return out
}

// assertNothingPending checks that a drained tree remembers no query: no
// node has a pending record, the tree's table is empty, and no recycled
// record still points at anybody's items.
func assertNothingPending[T any](t *testing.T, bt *TreeOf[T]) {
	t.Helper()
	for id, n := range bt.nodes {
		if len(n.pending) > 0 {
			t.Errorf("node %d still holds %d pending queries", id, len(n.pending))
		}
	}
	if len(bt.queries) > 0 {
		t.Errorf("the tree still holds %d queries", len(bt.queries))
	}
	for _, pq := range bt.free {
		if pq.items != nil || pq.unavail != nil || pq.pruned != nil || pq.node != nil {
			t.Errorf("a recycled record was not cleared: %+v", pq)
		}
	}
}

func diffOutcomes(t *testing.T, label string, got, want []outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d outcomes, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: query %d\n got %+v\nwant %+v", label, want[i].ID, got[i], want[i])
			return
		}
	}
}

// TestConvergecastMatchesReference holds the tree to the old convergecast
// over topologies × fault cases × seeds: the same item multiset, unavailable
// and pruned roots, node counts, pruning ledger and completion time for every
// query — and, on both, no node ever begins a query twice, which is why
// finish may forget a query's ID without leaving a tombstone: netsim drops
// but never duplicates, and a parent sends each child one Query per ID.
func TestConvergecastMatchesReference(t *testing.T) {
	queries, partial, pruned := 0, 0, 0
	for _, topo := range []string{"line", "random", "backbone"} {
		for _, fault := range refFaults {
			for seed := int64(1); seed <= 6; seed++ {
				want := runRefSchedule(t, topo, fault, seed, true, false)
				got := runRefSchedule(t, topo, fault, seed, false, false)
				diffOutcomes(t, fmt.Sprintf("%s/%s/%d", topo, fault, seed), got, want)
				for _, o := range want {
					queries++
					if len(o.Unavailable) > 0 {
						partial++
					}
					if o.PrunedNodes > 0 {
						pruned++
					}
				}
			}
		}
	}
	t.Logf("schedules ran %d queries, %d partial, %d pruned", queries, partial, pruned)
	// The schedules must actually reach the cases they are named for.
	if queries < 2000 || partial < 100 || pruned < 100 {
		t.Errorf("schedules ran %d queries, %d partial, %d pruned: too few to mean anything", queries, partial, pruned)
	}
}

// TestConvergecastPoisoned runs the same schedules with every recycled box
// overwritten with a junk message and every taken result scribbled over to
// the end of its capacity. Identical outcomes prove that no handler reads a
// box after Receive, and that no record or table kept an alias of a slice
// that finish or Take gave away.
func TestConvergecastPoisoned(t *testing.T) {
	for _, topo := range []string{"line", "random", "backbone"} {
		for _, fault := range refFaults {
			for seed := int64(1); seed <= 3; seed++ {
				want := runRefSchedule(t, topo, fault, seed, false, false)
				got := runRefSchedule(t, topo, fault, seed, false, true)
				diffOutcomes(t, fmt.Sprintf("%s/%s/%d poisoned", topo, fault, seed), got, want)
			}
		}
	}
}
