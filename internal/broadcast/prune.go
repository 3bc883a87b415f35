package broadcast

import (
	"slices"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sketch"
)

// Sketch-pruned selective multicast.
//
// E21 measured the cost of §3.3's mass distribution honestly: every content
// query walks all ~2.9M mailboxes down a depth-33 tree. The term index added
// in PR 9 is only consulted *at* each store — the broadcast still visits
// everyone. This file pushes the index one level up: a summary-aggregation
// phase (RefreshSketches) ORs each node's store sketch with its children's
// and caches the subtree sketch per directed edge, and Distribute consults
// that cache on the way down, skipping children whose subtree provably holds
// no match.
//
// The safety rule is single-sided and absolute: pruning may only happen on a
// *proof* of absence from a *fresh* sketch. Three conditions all fail open
// (visit the subtree):
//
//   - no cached sketch for the branch (never aggregated, or a node below
//     had no sketch to contribute);
//   - the cache is stale — some store under the branch mutated its term set
//     since aggregation, detected by comparing generation sums;
//   - the sketch says "maybe" (including Bloom false positives, which are
//     measured as FPSubtrees, the price of the bits saved).
//
// A pruned branch is excused *by proof*, not by timeout: the parent does not
// wait for it, the completion bound is unaffected, and audits must treat any
// actual match under a pruned root as a false-negative violation — the
// property test and the chaos auditors in internal/loadgen pin exactly that.

// Probe is implemented by payloads that expose required content terms: a
// matching item must contain every returned term, so a subtree sketch
// lacking any one of them proves the subtree empty of matches. A nil return
// disables pruning for this payload even on the Distribute path (the mass
// distribution itself, profile-only queries).
type Probe interface {
	SketchTerms() []string
}

// PruneStats aggregates one query's pruning decisions across all nodes.
type PruneStats struct {
	// Checked counts branch decisions where pruning was considered.
	Checked int
	// NoCache / StaleOpen count branches that failed open — no aggregated
	// sketch, or a generation mismatch proving the cache stale.
	NoCache   int
	StaleOpen int
	// PrunedSubtrees / PrunedNodes count branches skipped on proof and the
	// nodes beneath them.
	PrunedSubtrees int
	PrunedNodes    int
	// FPSubtrees counts sketch-passed branches whose whole subtree then
	// contributed nothing: Bloom false positives.
	FPSubtrees int
}

// Distribute injects a query like Start, but with sketch pruning enabled
// for payloads implementing Probe. With no Sketch hook configured, or a
// payload exposing no probe terms, it degrades to exactly Start.
func (t *TreeOf[T]) Distribute(origin graph.NodeID, payload any, targets map[string]bool) (uint64, error) {
	return t.start(origin, payload, targets, true)
}

// RefreshSketches runs the summary-aggregation phase: snapshot every node's
// store sketch once, then OR them into a cached subtree sketch per directed
// edge, remembering the generation sum each cache was built at. Returns the
// number of edges cached.
//
// The central walk stands in for the distributed convergecast that would
// carry these summaries in a deployment (each node ORing its own sketch
// with its children's and handing the result to its parent); the cost model
// is the same — one sketch per tree edge — and the staleness rule does not
// depend on who did the ORing. Down nodes are not special-cased: a down
// node's store is frozen, so reading it equals keeping its last summary,
// and its generation cannot move until it recovers.
func (t *TreeOf[T]) RefreshSketches() int {
	if t.sketchFn == nil {
		return 0
	}
	local := make(map[graph.NodeID]*sketch.Filter, len(t.adj))
	gens := make(map[graph.NodeID]uint64, len(t.adj))
	for id := range t.adj {
		f, g := t.sketchFn(id)
		if f == nil {
			continue // no sketch at this node: branches containing it cannot cache
		}
		local[id] = f
		gens[id] = g
	}
	cached := 0
	for id, vias := range t.nodesVia {
		for nb, covered := range vias {
			agg := sketch.NewFilter()
			var gsum uint64
			complete := true
			for _, c := range covered {
				f := local[c]
				if f == nil {
					complete = false
					break
				}
				agg.Or(f)
				gsum += gens[c]
			}
			if !complete {
				delete(t.sketchVia[id], nb)
				continue
			}
			t.sketchVia[id][nb] = agg
			t.genVia[id][nb] = gsum
			cached++
		}
	}
	return cached
}

// probeTerms extracts the sketch probe for a query, or nil when pruning
// does not apply (Start-path query, no hook, non-Probe payload, no terms).
func (t *TreeOf[T]) probeTerms(q Query) []string {
	if !q.Prune || t.sketchFn == nil {
		return nil
	}
	p, ok := q.Payload.(Probe)
	if !ok {
		return nil
	}
	return p.SketchTerms()
}

type branchVerdict int

const (
	// branchOpen: no usable sketch — visit (fail open).
	branchOpen branchVerdict = iota
	// branchPass: fresh sketch says "maybe" — visit, and watch for a false
	// positive.
	branchPass
	// branchPrune: fresh sketch proves no match below — skip.
	branchPrune
)

// checkBranch decides whether the branch node→nb can be pruned for a query
// requiring every term in probe, entering the decision in the query's ledger
// st. Returns the covered node count with branchPrune so the caller can
// account excused nodes.
func (t *TreeOf[T]) checkBranch(node, nb graph.NodeID, probe []string, st *PruneStats) (branchVerdict, int) {
	st.Checked++
	f := t.sketchVia[node][nb]
	if f == nil {
		st.NoCache++
		return branchOpen, 0
	}
	// Freshness: the generation sum over the covered set must equal the sum
	// recorded at aggregation. Any deposit or drain that changed a term set
	// below bumps a store generation and breaks the equality, so a stale
	// cache can never prune — it fails open here. (Centrally this is an
	// O(subtree) counter walk; a deployment would push generation deltas up
	// with the summaries instead.)
	var cur uint64
	for _, c := range t.nodesVia[node][nb] {
		cur += t.sketchGenFn(c)
	}
	if cur != t.genVia[node][nb] {
		st.StaleOpen++
		return branchOpen, 0
	}
	for _, term := range probe {
		if !f.MayContain(term) {
			st.PrunedSubtrees++
			n := len(t.nodesVia[node][nb])
			st.PrunedNodes += n
			return branchPrune, n
		}
	}
	return branchPass, 0
}

// pruneStats returns the ledger of a query: it lives in the origin's record.
func (t *TreeOf[T]) pruneStats(id uint64) *PruneStats {
	if pq := t.queries[id]; pq != nil {
		return &pq.stats
	}
	return &t.late
}

// PrunedNodeSet expands the roots a summary of a query from origin lists —
// Pruned, or Unavailable — into the full node set below them: what an audit
// excuses. A root's subtree is the one its neighbor on the path toward the
// origin reaches through it, which is the unique recorded directed-edge set
// through the root that does not contain the origin.
func (t *TreeOf[T]) PrunedNodeSet(origin graph.NodeID, roots []graph.NodeID) map[graph.NodeID]bool {
	if len(roots) == 0 {
		return nil
	}
	set := make(map[graph.NodeID]bool)
	for _, r := range roots {
		for _, p := range t.adj[r] {
			covered := t.nodesVia[p][r]
			if slices.Contains(covered, origin) {
				continue
			}
			for _, c := range covered {
				set[c] = true
			}
			break
		}
	}
	return set
}
