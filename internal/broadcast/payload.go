package broadcast

import (
	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
)

// The mail system's payloads, shared between the broadcast layer and its
// driver (internal/loadgen): AttrQuery rides down the tree as Query.Payload,
// and UserMatch is the item type Tree, Config and Summary are instantiated
// with, so a summary's Items are []UserMatch end to end.

// AttrQuery is the downward payload of the §3.3 attribute architecture:
// either a mass distribution (deposit the message at every matching
// mailbox) or a content search (report who holds matching mail).
type AttrQuery struct {
	// MsgID identifies the distributed message; zero for content searches.
	MsgID mail.MessageID
	// Group is the driver's audience index (profiles carry "g<n>" interest
	// attributes); -1 when the audience is defined by Query alone.
	Group int
	// Query is the attribute predicate. For distributions it selects the
	// audience; for content searches the planner (attr.PlanQuery) decides
	// whether its content terms allow the pruned route.
	Query attr.Query
	// Terms are the planner's probe terms for a content search, planned once
	// at the origin; every node's evaluator and prune decision read them.
	Terms []string
	// Subject and Body are the message text for distributions; their terms
	// feed the per-store sketch and term index on deposit.
	Subject string
	Body    string
	// Distribute distinguishes the two modes: true deposits, false
	// searches.
	Distribute bool
}

// SketchTerms implements Probe. Distributions never prune — depositing
// must reach every audience mailbox regardless of what mail is already
// buffered below. Content searches prune on the planner's probe terms.
func (q AttrQuery) SketchTerms() []string {
	if q.Distribute {
		return nil
	}
	return q.Terms
}

// UserMatch is the upward item: one matched user at one node.
type UserMatch struct {
	User int
	Node graph.NodeID
}
