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
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// termProbe is a content-search payload for tests: a node's items are the
// users whose buffered mail contains every term.
type termProbe struct{ Terms []string }

func (p termProbe) SketchTerms() []string { return p.Terms }

// pruneWorld is a tree of nodes each backed by a term-indexed store, with
// the sketch hooks wired — the smallest world Distribute can prune in.
type pruneWorld struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	tree   *TreeOf[string]
	stores map[graph.NodeID]*mailstore.Store
	n      int
	seq    uint64
}

// newPruneWorld builds a random spanning tree over n single-region nodes
// (node i attaches to a random earlier node).
func newPruneWorld(t *testing.T, n int, rng *rand.Rand) *pruneWorld {
	t.Helper()
	g := graph.New()
	var tr graph.Tree
	for i := 1; i <= n; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Region: "A"})
		if i > 1 {
			p := graph.NodeID(1 + rng.Intn(i-1))
			g.MustAddEdge(graph.NodeID(i), p, 1)
			tr.Edges = append(tr.Edges, graph.Edge{A: graph.NodeID(i), B: p, Weight: 1})
			tr.Weight++
		}
	}
	w := &pruneWorld{stores: make(map[graph.NodeID]*mailstore.Store), n: n}
	for i := 1; i <= n; i++ {
		s := mailstore.New(2)
		s.EnableTermIndex()
		w.stores[graph.NodeID(i)] = s
	}
	w.sched = sim.New(1)
	w.net = netsim.New(w.sched, g)
	bt, err := SetupOf(ConfigOf[string]{
		Net:  w.net,
		Tree: tr,
		Eval: func(id graph.NodeID, q any) []string {
			p, ok := q.(termProbe)
			if !ok {
				return nil
			}
			holders := w.stores[id].SearchTerms(p.Terms)
			out := make([]string, 0, len(holders))
			for _, h := range holders {
				out = append(out, fmt.Sprintf("%s@%d", h.User, id))
			}
			return out
		},
		Sketch:    func(id graph.NodeID) (*sketch.Filter, uint64) { return w.stores[id].Sketch() },
		SketchGen: func(id graph.NodeID) uint64 { return w.stores[id].SketchGen() },
	})
	if err != nil {
		t.Fatal(err)
	}
	w.tree = bt
	return w
}

func (w *pruneWorld) deposit(node graph.NodeID, user int, body string) {
	w.seq++
	w.stores[node].Deposit(
		names.Name{Region: "A", Host: "h", User: fmt.Sprintf("u%d", user)},
		mail.Message{ID: mail.MessageID{Node: node, Seq: w.seq}, Subject: "s", Body: body},
		w.sched.Now(),
	)
}

// run launches via start (pruned or not), drives the scheduler, and returns
// the summary and the pruning ledger.
func (w *pruneWorld) run(t *testing.T, origin graph.NodeID, p termProbe, pruned bool) (SummaryOf[string], PruneStats) {
	t.Helper()
	var id uint64
	var err error
	if pruned {
		id, err = w.tree.Distribute(origin, p, nil)
	} else {
		id, err = w.tree.Start(origin, p, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	res, _, st, ok := w.tree.Take(id)
	if !ok {
		t.Fatal("no result")
	}
	return res, st
}

func itemSet(items []string) []string {
	out := slices.Clone(items)
	sort.Strings(out)
	return out
}

func TestDistributePrunesProvenEmptySubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newPruneWorld(t, 12, rng)
	w.deposit(1, 100, "quarterly budget numbers")
	w.tree.RefreshSketches()

	res, st := w.run(t, 1, termProbe{Terms: []string{"budget"}}, true)
	if got := itemSet(res.Items); !reflect.DeepEqual(got, []string{"u100@1"}) {
		t.Fatalf("items = %v, want the one holder", got)
	}
	if res.PrunedNodes != w.n-1 {
		t.Fatalf("pruned %d nodes, want %d (everyone but the origin)", res.PrunedNodes, w.n-1)
	}
	if res.Nodes != 1 {
		t.Fatalf("visited %d nodes, want 1", res.Nodes)
	}
	if st.PrunedSubtrees == 0 || st.PrunedNodes != w.n-1 {
		t.Fatalf("stats = %+v", st)
	}
	// Coverage invariant: visited + pruned = the whole tree.
	if res.Nodes+res.PrunedNodes != w.n {
		t.Fatalf("visited %d + pruned %d != %d", res.Nodes, res.PrunedNodes, w.n)
	}
}

func TestDistributeMatchesStartProperty(t *testing.T) {
	// Property: across random trees, random deposits/drains, and random
	// refresh timing, Distribute returns exactly Start's match set — sketch
	// pruning may only remove provably matchless visits, never matches.
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		w := newPruneWorld(t, n, rng)
		terms := []string{"budget", "offsite", "seminar", "deadline", "picnic"}
		for step := 0; step < 40; step++ {
			node := graph.NodeID(1 + rng.Intn(n))
			switch rng.Intn(5) {
			case 0:
				w.stores[node].Drain(names.Name{Region: "A", Host: "h", User: fmt.Sprintf("u%d", rng.Intn(50))})
			case 1:
				w.tree.RefreshSketches() // refresh at an arbitrary moment
			default:
				body := terms[rng.Intn(len(terms))] + " " + terms[rng.Intn(len(terms))]
				w.deposit(node, rng.Intn(50), body)
			}
		}
		probe := termProbe{Terms: []string{terms[rng.Intn(len(terms))]}}
		if rng.Intn(2) == 0 {
			probe.Terms = append(probe.Terms, terms[rng.Intn(len(terms))])
		}
		origin := graph.NodeID(1 + rng.Intn(n))

		full, _ := w.run(t, origin, probe, false)
		want := itemSet(full.Items)
		got, _ := w.run(t, origin, probe, true)
		if !reflect.DeepEqual(itemSet(got.Items), want) {
			t.Fatalf("seed %d: pruned run items %v != unpruned %v (probe %v)",
				seed, itemSet(got.Items), want, probe.Terms)
		}
		if got.Nodes+got.PrunedNodes != n {
			t.Fatalf("seed %d: visited %d + pruned %d != %d", seed, got.Nodes, got.PrunedNodes, n)
		}
	}
}

func TestStaleSketchFailsOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := newPruneWorld(t, 10, rng)
	w.tree.RefreshSketches() // caches: everything empty

	// A deposit after aggregation makes every cache covering node 9 stale.
	w.deposit(9, 42, "the offsite agenda")

	res, st := w.run(t, 1, termProbe{Terms: []string{"offsite"}}, true)
	if got := itemSet(res.Items); !reflect.DeepEqual(got, []string{"u42@9"}) {
		t.Fatalf("stale caches lost the match: items = %v", got)
	}
	if st.StaleOpen == 0 {
		t.Fatalf("expected stale caches to fail open, stats = %+v", st)
	}
	// After re-aggregation the same query prunes the matchless branches and
	// still finds the holder.
	w.tree.RefreshSketches()
	res2, _ := w.run(t, 1, termProbe{Terms: []string{"offsite"}}, true)
	if got := itemSet(res2.Items); !reflect.DeepEqual(got, []string{"u42@9"}) {
		t.Fatalf("fresh caches lost the match: items = %v", got)
	}
	if res2.PrunedNodes == 0 {
		t.Fatal("fresh caches pruned nothing on a one-holder query")
	}
}

func TestDistributeWithoutSketchHookEqualsStart(t *testing.T) {
	// No Sketch hook: Distribute must behave exactly like Start.
	sched, _, bt := testTree(t, 0)
	id, err := bt.Distribute(1, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	res, _, _, ok := bt.Take(id)
	if !ok || res.Nodes != 6 || res.PrunedNodes != 0 {
		t.Fatalf("result = %+v, %v", res, ok)
	}
}

func TestPrunedNodeSetResolvesSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := newPruneWorld(t, 14, rng)
	w.deposit(1, 1, "budget")
	w.tree.RefreshSketches()
	res, _ := w.run(t, 1, termProbe{Terms: []string{"budget"}}, true)
	set := w.tree.PrunedNodeSet(1, res.Pruned)
	if len(set) != res.PrunedNodes {
		t.Fatalf("expanded pruned set has %d nodes, summary says %d", len(set), res.PrunedNodes)
	}
	if set[1] {
		t.Fatal("origin cannot be in its own pruned set")
	}
}

func TestDistributeUnderCrashStillFlagsUnavailable(t *testing.T) {
	// Pruning must not mask the §3.3.1-B timeout semantics: a crashed node
	// that the sketch says to visit is reported unavailable, not excused.
	rng := rand.New(rand.NewSource(5))
	w := newPruneWorld(t, 8, rng)
	for i := 1; i <= 8; i++ {
		w.deposit(graph.NodeID(i), 10+i, "deadline reminder")
	}
	w.tree.RefreshSketches()
	victim := graph.NodeID(5)
	w.net.Crash(victim)
	res, _ := w.run(t, 1, termProbe{Terms: []string{"deadline"}}, true)
	found := false
	for _, u := range res.Unavailable {
		if u == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("crashed node %d not flagged unavailable: %+v", victim, res)
	}
	if res.PrunedNodes != 0 {
		t.Fatalf("every node holds the term; nothing should be pruned: %+v", res)
	}
}
