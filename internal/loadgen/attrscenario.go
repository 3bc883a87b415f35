package loadgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// AttrConfig configures the attribute-broadcast scenario (§3.3): senders
// address predicates, queries fan down the backbone-MST, matches deposit
// into term-indexed mailstores, and responses convergecast back up.
type AttrConfig struct {
	Seed int64
	Pop  Population
	// Queries is how many mass-distribution queries to launch (default 20).
	Queries int
	// QueryEvery launches one query every n ticks (default 3).
	QueryEvery int
	// ContentEvery makes every k-th launch a content search against the
	// mailstore term index instead of a profile broadcast (default 5).
	ContentEvery int
	// SweepEvery drains deposited copies every n ticks (default 4).
	SweepEvery int
	// Ticks runs the loop this long (default sized to the query schedule;
	// SetSchedule raises it to cover the fault schedule's horizon).
	Ticks int
	// DisablePrune routes content searches over the exhaustive Start path
	// even when the planner says they could prune — the E21-compatible
	// baseline. Zero value: pruning on.
	DisablePrune bool
	// SketchRefreshEvery re-aggregates the subtree sketches every n ticks.
	// 0 (the default) refreshes on demand right before each prunable
	// launch instead — maximal pruning; a periodic cadence deliberately
	// leaves windows where deposits make caches stale, exercising the
	// fail-open rule (the faults-on bench point uses this).
	SketchRefreshEvery int
}

// attrGroups is the number of interest groups users hash into, and
// attrTimeout the broadcast parent's base per-edge wait.
const (
	attrGroups  = 16
	attrTimeout = 30 * sim.Unit
)

func (c AttrConfig) withDefaults() AttrConfig {
	c.Pop = c.Pop.withDefaults()
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.QueryEvery <= 0 {
		c.QueryEvery = 3
	}
	if c.ContentEvery <= 0 {
		c.ContentEvery = 5
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 4
	}
	if c.Ticks <= 0 {
		c.Ticks = c.Queries*c.QueryEvery + 20
	}
	return c
}

// AttrReport is the outcome of an attribute-broadcast run.
type AttrReport struct {
	Ok         bool
	Violations map[string]int
	Examples   []string

	Queries        int // mass-distribution queries completed
	ContentQueries int // term-index searches completed
	Skipped        int // launches skipped because the origin was down
	Partial        int // queries whose summary carried unavailable subtrees
	Deliveries     int // total copies deposited by mass distribution
	MaxDepth       int // deepest convergecast depth seen from any origin
	Ticks          int

	// Selective-multicast accounting (content queries only).
	PrunedSubtrees int // branch skips proven by fresh subtree sketches
	PrunedNodes    int // nodes excused by those proofs
	VisitedNodes   int // nodes that actually evaluated a content query
	SketchFP       int // sketch-passed subtrees that then held no match
	StaleOpen      int // stale caches that failed open (visited anyway)
	Refreshes      int // sketch aggregation phases run
	// CQMailboxes counts mailboxes on the nodes content queries visited;
	// CQMailboxesFull is what the same queries would have walked unpruned
	// (every node's mailboxes) — the E21 comparison numerator/denominator.
	CQMailboxes     int64
	CQMailboxesFull int64
}

// attrTerms is the pool of body terms content searches draw from.
var attrTerms = []string{"budget", "offsite", "seminar", "deadline", "picnic"}

// attrCities diversifies profiles so conjunctive predicates select strict
// subsets of an interest group.
var attrCities = []string{"boston", "cambridge", "salem", "medford", "quincy", "newton"}

// attrQuery is the in-flight bookkeeping for one broadcast.
type attrQuery struct {
	id          uint64
	content     bool
	origin      graph.NodeID
	start       sim.Time
	bound       sim.Time
	deadAtStart []graph.NodeID
	// truth is the ground truth at launch, ascending: a distribution's
	// matching users, or a content search's holders server by server, global
	// server gs's in truth[at[gs]:at[gs+1]].
	truth []int
	at    []int
}

// holdersOn returns the content search's launch-time holders on server gs.
func (q *attrQuery) holdersOn(gs int) []int { return q.truth[q.at[gs]:q.at[gs+1]] }

// AttrScenario drives the paper's third architecture: a servers-only
// topology carrying a backbone-MST, broadcast/convergecast for delivery,
// per-node term-indexed mailstores for retrieval, and auditors holding it
// to no-lost-deliveries, flagged partials, and bounded completion.
type AttrScenario struct {
	cfg   AttrConfig
	pop   Population
	sched *sim.Scheduler
	net   *netsim.Network
	reg   *obs.Registry
	tree  *broadcast.Tree
	store map[graph.NodeID]*mailstore.Store
	aud   *Auditors
	rng   *rand.Rand
	// schedule, when set by SetSchedule, is a compiled fault schedule
	// injected as its ticks come due.
	schedule *faults.Schedule

	// residents holds what a §3.3 server stores for each of its users — the
	// name mail is deposited under and the attribute profile predicates are
	// matched against — in chunks of one interest group's users, built on
	// first touch (see resident): residents[g][c] is group g's chunk c.
	residents [attrGroups][][]resident

	pending   map[uint64]*attrQuery
	pendingID []uint64 // launch order, for deterministic completion sweeps
	undrained [][]int  // per global server, users deposited to since the last sweep
	seq       int      // launches so far; also the unique message-ID sequence

	// got[u] == audits marks user u as reported by the query being audited;
	// gotUsers lists those users once each, in the summary's order.
	got      []uint32
	audits   uint32
	gotUsers []int
	// Buffers reused: audited queries' truth, the evaluator's results.
	spareTruth  [][]int
	matched     []int
	holders     []int
	holderNames []names.Name

	rep AttrReport
}

// NewAttrScenario builds the world: one node per server, rings intra- and
// inter-region, the MST backbone over them, a broadcast tree on the MST,
// and a term-indexed mailstore per node.
func NewAttrScenario(cfg AttrConfig) (*AttrScenario, error) {
	cfg = cfg.withDefaults()
	s := &AttrScenario{
		cfg:       cfg,
		pop:       cfg.Pop,
		sched:     sim.New(cfg.Seed),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d)),
		reg:       obs.NewRegistry(),
		store:     make(map[graph.NodeID]*mailstore.Store),
		pending:   make(map[uint64]*attrQuery),
		undrained: make([][]int, cfg.Pop.TotalServers()),
		got:       make([]uint32, cfg.Pop.Users),
	}
	for g := range s.residents {
		s.residents[g] = make([][]resident, cfg.Pop.Users/attrGroups/residentChunk+1)
	}
	g := s.buildTopology()
	s.net = netsim.New(s.sched, g)
	bb, err := mst.Backbone(g, true)
	if err != nil {
		return nil, err
	}
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		st := mailstore.New(4)
		st.EnableTermIndex()
		s.store[serverID(gs)] = st
	}
	s.tree, err = broadcast.Setup(broadcast.Config{
		Net:       s.net,
		Tree:      bb.Combined,
		Eval:      s.eval,
		Timeout:   attrTimeout,
		Sketch:    func(id graph.NodeID) (*sketch.Filter, uint64) { return s.store[id].Sketch() },
		SketchGen: func(id graph.NodeID) uint64 { return s.store[id].SketchGen() },
	})
	if err != nil {
		return nil, err
	}
	s.aud = NewAuditors(s.pop.AuthorityLen, false)
	return s, nil
}

// buildTopology wires servers only: intra-region rings (weight ~1) and an
// inter-region ring (weight ~2), the same shape the other drivers use minus
// the hosts (in §3.3 every message transits servers; user hosts contribute
// no routing). GHS needs globally distinct weights, so each edge carries a
// deterministic epsilon.
func (s *AttrScenario) buildTopology() *graph.Graph {
	p := s.pop
	g := graph.New()
	spr := p.ServersPerRegion
	eps := 0
	jitter := func(base float64) float64 {
		eps++
		return base + float64(eps)/1024
	}
	for r := 0; r < p.Regions; r++ {
		region := p.RegionName(r)
		for j := 0; j < spr; j++ {
			gs := r*spr + j
			g.MustAddNode(graph.Node{
				ID: serverID(gs), Label: serverLabel(gs),
				Region: region, Kind: graph.KindServer,
			})
		}
		for j := 0; j < spr; j++ {
			next := (j + 1) % spr
			if next == j {
				break
			}
			g.MustAddEdge(serverID(r*spr+j), serverID(r*spr+next), jitter(1))
			if spr == 2 {
				break
			}
		}
	}
	for r := 0; r < p.Regions && p.Regions > 1; r++ {
		next := (r + 1) % p.Regions
		if next == r {
			break
		}
		g.MustAddEdge(serverID(r*spr), serverID(next*spr), jitter(2))
		if p.Regions == 2 {
			break
		}
	}
	return g
}

// homeServer returns the global server index user u's mailbox lives on.
func (s *AttrScenario) homeServer(u int) int {
	return s.pop.RegionOf(u)*s.pop.ServersPerRegion + s.pop.HostOf(u)%s.pop.ServersPerRegion
}

// resident is one user's record: the profile and the array its Attrs point
// into.
type resident struct {
	attr.Profile
	attrs [3]attr.Attribute
}

// residentChunk is how many users of one interest group a chunk holds.
const residentChunk = 256

// resident returns user u's record. The population is virtual — a pure
// function of the index — so a record is derived the first time a query, a
// deposit or a sweep touches the user and kept from then on: a distribution
// costs its audience one record each, once, not one per candidate per
// evaluation. Records are derived a chunk of u's interest group at a time, as
// a distribution addresses a group: untouched groups are never held.
func (s *AttrScenario) resident(u int) *attr.Profile {
	g, k := u%attrGroups, u/attrGroups
	chunk := &s.residents[g][k/residentChunk]
	if *chunk == nil {
		*chunk = s.carveResidents(g, k/residentChunk)
	}
	return &(*chunk)[k%residentChunk].Profile
}

// carveResidents derives group g's chunk c, users g + attrGroups·k for k from
// c·residentChunk: one []resident, and its users' u<n> and user<n> tokens in
// one string of exactly their length, written on the stack first.
func (s *AttrScenario) carveResidents(g, c int) []resident {
	first := g + attrGroups*residentChunk*c
	chunk := make([]resident, min(residentChunk, (s.pop.Users-first+attrGroups-1)/attrGroups))
	var buf [residentChunk * (len("uuser") + 2*20)]byte
	var ends [residentChunk][2]int // where each user's u<n> and user<n> end
	text := buf[:0]
	for j := range chunk {
		text = strconv.AppendInt(append(text, 'u'), int64(first+attrGroups*j), 10)
		ends[j][0] = len(text)
		text = strconv.AppendInt(append(text, "user"...), int64(first+attrGroups*j), 10)
		ends[j][1] = len(text)
	}
	tokens, start := string(text), 0
	for j := range chunk {
		u := first + attrGroups*j
		user, tag := tokens[start:ends[j][0]], tokens[ends[j][0]:ends[j][1]]
		start = ends[j][1]
		chunk[j].attrs = [3]attr.Attribute{
			{Type: attr.TypeInterest, Value: token(groupTokens, "g", g), Visibility: attr.Public},
			{Type: attr.TypeCity, Value: attrCities[u%len(attrCities)], Visibility: attr.Public},
			{Type: attr.TypeName, Value: tag, Visibility: attr.Public},
		}
		chunk[j].Profile = attr.Profile{User: s.pop.nameAs(u, user), Attrs: chunk[j].attrs[:]}
	}
	return chunk
}

// matchingOn enumerates group candidates homed on server gs and verifies
// each against the real matcher. The result is valid until the next call.
func (s *AttrScenario) matchingOn(gs, group int, q attr.Query) []int {
	out := s.matched[:0]
	for u := group; u < s.pop.Users; u += attrGroups {
		if s.homeServer(u) != gs {
			continue
		}
		if q.Matches(s.resident(u)) {
			out = append(out, u)
		}
	}
	s.matched = out
	return out
}

// eval is the broadcast Evaluator. The payload is the typed
// broadcast.AttrQuery shared with the tree layer: a mass distribution
// deposits a copy for every local match (and ledgers it owed), a content
// search evaluates the terms planned at the origin against the term index.
// The returned slice is the tree's from here on.
func (s *AttrScenario) eval(node graph.NodeID, payload any) []broadcast.UserMatch {
	p, ok := payload.(broadcast.AttrQuery)
	if !ok {
		return nil
	}
	if p.Distribute {
		gs := int(node - simServerBase - 1)
		users := s.matchingOn(gs, p.Group, p.Query)
		items := make([]broadcast.UserMatch, 0, len(users))
		now := s.sched.Now()
		for _, u := range users {
			s.store[node].Deposit(s.resident(u).User, mail.Message{
				ID: p.MsgID, Subject: p.Subject, Body: p.Body, SubmittedAt: now,
			}, now)
			s.undrained[gs] = append(s.undrained[gs], u)
			s.reg.Inc("bcast_deposits")
			items = append(items, broadcast.UserMatch{User: u, Node: node})
		}
		s.aud.recordSubmit(p.MsgID.TraceKey(), users)
		return items
	}
	holders := s.contentHolders(node, p.Terms)
	items := make([]broadcast.UserMatch, len(holders))
	for i, u := range holders {
		items[i] = broadcast.UserMatch{User: u, Node: node}
	}
	return items
}

// contentHolders resolves the users on a node whose buffered mail contains
// every term, as population indices, each once, in no particular order. The
// result is valid until the next call.
func (s *AttrScenario) contentHolders(node graph.NodeID, terms []string) []int {
	s.holderNames = s.store[node].AppendSearch(s.holderNames[:0], terms)
	out := s.holders[:0]
	for _, name := range s.holderNames {
		if u, ok := s.pop.UserIndex(name); ok {
			out = append(out, u)
		}
	}
	s.holders = out
	return out
}

// downNodes lists tree nodes currently down, excluding the origin.
func (s *AttrScenario) downNodes(origin graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		id := serverID(gs)
		if id != origin && !s.net.IsUp(id) {
			out = append(out, id)
		}
	}
	return out
}

// launch starts one query from the home server of a random sender. Content
// searches only leave when nothing else is in flight, so the term index is
// stable under them.
func (s *AttrScenario) launch(content bool) {
	seq := s.seq
	s.seq++
	sender := s.rng.Intn(s.pop.Users)
	origin := serverID(s.homeServer(sender))
	if content && len(s.pending) > 0 {
		content = false // don't stall the schedule; send a distribution instead
	}
	if !s.net.IsUp(origin) {
		s.rep.Skipped++
		return
	}
	depth := s.tree.MaxDepthFrom(origin)
	s.rep.MaxDepth = max(s.rep.MaxDepth, depth)
	q := &attrQuery{origin: origin, start: s.sched.Now(), content: content}
	if n := len(s.spareTruth); n > 0 {
		q.truth, s.spareTruth = s.spareTruth[n-1], s.spareTruth[:n-1]
	}
	q.bound = q.start + attrTimeout*sim.Time(depth) + sim.Unit
	q.deadAtStart = s.downNodes(origin)

	var payload broadcast.AttrQuery
	pruned := false
	if content {
		term := attrTerms[s.rng.Intn(len(attrTerms))]
		query, err := attr.ParseQuery("content=" + term)
		if err != nil {
			s.aud.RecordViolation(ViolationBroadcastLoss, "unparseable content query "+term)
			return
		}
		plan := attr.PlanQuery(query)
		pruned = plan.Route == attr.RoutePruned && !s.cfg.DisablePrune
		q.at = make([]int, s.pop.TotalServers()+1)
		for gs := 0; gs < s.pop.TotalServers(); gs++ {
			q.truth = append(q.truth, s.contentHolders(serverID(gs), plan.Terms)...)
			slices.Sort(q.truth[q.at[gs]:])
			q.at[gs+1] = len(q.truth)
		}
		payload = broadcast.AttrQuery{Group: -1, Query: query, Terms: plan.Terms}
	} else {
		group := s.rng.Intn(attrGroups)
		qs := fmt.Sprintf("interest=g%d", group)
		if s.rng.Intn(3) == 0 {
			city := attrCities[s.rng.Intn(len(attrCities))]
			qs += fmt.Sprintf(", city^=%s", city[:3])
		}
		query, err := attr.ParseQuery(qs)
		if err != nil {
			s.aud.RecordViolation(ViolationBroadcastLoss, "unparseable query "+qs)
			return
		}
		for u := group; u < s.pop.Users; u += attrGroups { // ascending
			if query.Matches(s.resident(u)) {
				q.truth = append(q.truth, u)
			}
		}
		term := attrTerms[s.rng.Intn(len(attrTerms))]
		payload = broadcast.AttrQuery{
			MsgID:      mail.MessageID{Node: origin, Seq: uint64(seq) + 1},
			Group:      group,
			Query:      query,
			Subject:    "bulletin " + qs,
			Body:       fmt.Sprintf("%s notice for group g%d", term, group),
			Distribute: true,
		}
	}
	var id uint64
	var err error
	if pruned {
		// On-demand aggregation keeps caches maximally fresh; a periodic
		// cadence instead leaves the staleness windows the fail-open rule
		// is audited under.
		if s.cfg.SketchRefreshEvery == 0 {
			s.rep.Refreshes++
			s.tree.RefreshSketches()
		}
		id, err = s.tree.Distribute(origin, payload, nil)
	} else {
		id, err = s.tree.Start(origin, payload, nil)
	}
	if err != nil {
		s.rep.Skipped++
		return
	}
	q.id = id
	s.pending[id] = q
	s.pendingID = append(s.pendingID, id)
}

// harvest audits every completed in-flight query.
func (s *AttrScenario) harvest() {
	remaining := s.pendingID[:0]
	for _, id := range s.pendingID {
		q := s.pending[id]
		sum, at, st, ok := s.tree.Take(id)
		if !ok {
			remaining = append(remaining, id)
			continue
		}
		delete(s.pending, id)
		s.audit(q, sum, at, st)
		s.spareTruth = append(s.spareTruth, q.truth[:0])
	}
	s.pendingID = remaining
}

// audit holds one completed query to the §3.3 invariants.
func (s *AttrScenario) audit(q *attrQuery, sum broadcast.Summary, at sim.Time, st broadcast.PruneStats) {
	// Bounded completion: the origin's own depth-scaled timer is the worst
	// case; exceeding it means a parent failed to time out on a dead child.
	if at > q.bound {
		s.aud.RecordViolation(ViolationConvergecastBound,
			fmt.Sprintf("query %d finished at %d, bound %d", q.id, at, q.bound))
	}
	// Users homed under an unavailable root are excused from the delivery
	// audit for this query.
	excused := s.tree.PrunedNodeSet(q.origin, sum.Unavailable)
	// Subtrees in sum.Pruned are excused *by proof*: a fresh sketch showed
	// no possible match below, so they owe no items and no unavailability
	// flag — but any ground-truth match inside one is a false negative,
	// checked in auditContent.
	prunedSet := s.tree.PrunedNodeSet(q.origin, sum.Pruned)
	if len(sum.Unavailable) > 0 {
		s.rep.Partial++
	}
	// Positive E6: children dead for the query's whole lifetime must be
	// flagged unavailable, never silently merged. A dead node inside a
	// pruned subtree is the exception: it was excused by proof, not
	// silently merged, so completeness claims stay honest without it.
	if len(sum.Unavailable) == 0 {
		for _, id := range q.deadAtStart {
			if !s.net.IsUp(id) && !prunedSet[id] {
				s.aud.RecordViolation(ViolationPartialUnflagged,
					fmt.Sprintf("query %d: node %d dead throughout but summary claims complete", q.id, id))
				break
			}
		}
	}
	s.audits++ // a wrap would need 2³² audits
	s.gotUsers = s.gotUsers[:0]
	for _, m := range sum.Items {
		if s.got[m.User] == s.audits {
			s.aud.RecordViolation(ViolationBroadcastLoss,
				fmt.Sprintf("query %d: u%d summarized twice", q.id, m.User))
		} else {
			s.got[m.User] = s.audits
			s.gotUsers = append(s.gotUsers, m.User)
		}
		if prunedSet[m.Node] {
			s.aud.RecordViolation(ViolationBroadcastLoss,
				fmt.Sprintf("query %d: item from u%d@%d inside a pruned subtree", q.id, m.User, m.Node))
		}
	}
	if q.content {
		s.rep.ContentQueries++
		s.auditContent(q, excused, prunedSet)
		s.recordPrune(sum, st, prunedSet)
		lat := float64(at-q.start) / float64(sim.Unit)
		s.reg.Histogram("lat_convergecast", nil).Observe(lat)
		return
	}
	if len(sum.Pruned) > 0 {
		// Distributions must deposit at every audience mailbox; the tree
		// never prunes them (AttrQuery.SketchTerms is nil when
		// Distribute=true). Seeing a pruned root here means that contract
		// broke.
		s.aud.RecordViolation(ViolationBroadcastLoss,
			fmt.Sprintf("query %d: distribution pruned %d subtrees", q.id, len(sum.Pruned)))
	}
	s.rep.Queries++
	s.rep.Deliveries += len(s.gotUsers)
	for _, u := range q.truth {
		if s.got[u] == s.audits {
			continue
		}
		if excused[serverID(s.homeServer(u))] {
			continue
		}
		if len(sum.Unavailable) == 0 {
			s.aud.RecordViolation(ViolationPartialUnflagged,
				fmt.Sprintf("query %d: u%d missing from a summary claiming completeness", q.id, u))
		} else {
			s.aud.RecordViolation(ViolationBroadcastLoss,
				fmt.Sprintf("query %d: u%d missing though its node responded", q.id, u))
		}
	}
	for _, u := range s.gotUsers {
		if _, ok := slices.BinarySearch(q.truth, u); !ok {
			s.aud.RecordViolation(ViolationBroadcastLoss,
				fmt.Sprintf("query %d: bogus delivery claim for u%d", q.id, u))
		}
	}
	lat := float64(at-q.start) / float64(sim.Unit)
	s.reg.Histogram("lat_broadcast", nil).Observe(lat)
}

// auditContent compares a term search against the per-node index snapshot
// taken at launch (the index is stable in flight: content queries only leave
// when nothing else is pending, and sweeps pause while they run).
//
// The two excusal sets have opposite contracts. A node under an unavailable
// root is excused outright: its summary was lost, so nothing can be said
// about its holders. A node under a *pruned* root is excused only from
// being visited — the sketch proved it holds nothing, so any launch-time
// holder there is a pruning false negative, the one violation the
// selective multicast must never commit.
// A claim is bogus when its user held no match at launch on its home server,
// where all its copies are deposited.
func (s *AttrScenario) auditContent(q *attrQuery, excused, prunedSet map[graph.NodeID]bool) {
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		node := serverID(gs)
		if excused[node] {
			continue
		}
		if prunedSet[node] {
			for _, u := range q.holdersOn(gs) {
				s.aud.RecordViolation(ViolationBroadcastLoss,
					fmt.Sprintf("content query %d: u%d@%d held a match inside a pruned subtree (false negative)", q.id, u, node))
			}
			continue
		}
		for _, u := range q.holdersOn(gs) {
			if s.got[u] != s.audits {
				s.aud.RecordViolation(ViolationBroadcastLoss,
					fmt.Sprintf("content query %d: u%d's indexed copy not reported", q.id, u))
			}
		}
	}
	for _, u := range s.gotUsers {
		home := s.homeServer(u)
		if excused[serverID(home)] {
			continue // evaluated before its subtree's summary was lost
		}
		if _, held := slices.BinarySearch(q.holdersOn(home), u); !held {
			s.aud.RecordViolation(ViolationBroadcastLoss,
				fmt.Sprintf("content query %d: bogus holder claim for u%d", q.id, u))
		}
	}
}

// recordPrune folds one content query's pruning ledger into the report and
// the obs counters, including the mailboxes-visited accounting the E22
// comparison against E21 is built on.
func (s *AttrScenario) recordPrune(sum broadcast.Summary, st broadcast.PruneStats, prunedSet map[graph.NodeID]bool) {
	s.rep.PrunedSubtrees += st.PrunedSubtrees
	s.rep.PrunedNodes += st.PrunedNodes
	s.rep.VisitedNodes += sum.Nodes
	s.rep.SketchFP += st.FPSubtrees
	s.rep.StaleOpen += st.StaleOpen
	s.reg.Add("attr_pruned_subtrees", int64(st.PrunedSubtrees))
	s.reg.Add("attr_pruned_nodes", int64(st.PrunedNodes))
	s.reg.Add("attr_visited_nodes", int64(sum.Nodes))
	s.reg.Add("attr_sketch_fp", int64(st.FPSubtrees))
	s.reg.Add("attr_sketch_stale_open", int64(st.StaleOpen))
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		id := serverID(gs)
		boxes := int64(s.store[id].NumUsers())
		s.rep.CQMailboxesFull += boxes
		if !prunedSet[id] {
			s.rep.CQMailboxes += boxes
		}
	}
}

// sweep drains deposited copies from live nodes into the retrieval ledger.
// Paused while a content query is in flight so its ground truth stays fixed.
func (s *AttrScenario) sweep() {
	for _, q := range s.pending {
		if q.content {
			return
		}
	}
	var ids []mail.MessageID
	for gs, users := range s.undrained {
		node := serverID(gs)
		if len(users) == 0 || !s.net.IsUp(node) {
			continue // a crashed store is unreachable until recovery
		}
		slices.Sort(users)
		for _, u := range slices.Compact(users) {
			ids = ids[:0]
			batch := s.store[node].Drain(s.resident(u).User)
			for _, st := range batch {
				ids = append(ids, st.ID)
			}
			mail.Release(batch) // the next deposit into an empty mailbox reuses the slot
			s.aud.creditIDs(u, ids)
		}
		s.undrained[gs] = users[:0]
	}
}

// Run executes the scenario: launch queries on schedule, inject faults,
// harvest completions, sweep deposits, then settle, force a pair of content
// searches through the quiet world, and close the ledger.
func (s *AttrScenario) Run() AttrReport {
	inj := faults.NewSimTarget(s.net, s.nodeMap(), simTick)
	var events []faults.Event
	if s.schedule != nil {
		events = s.schedule.Events
	}
	next := 0
	launched := 0
	for tick := 0; tick < s.cfg.Ticks; tick++ {
		for next < len(events) && events[next].Tick <= tick {
			_ = inj.Inject(events[next])
			next++
		}
		if s.cfg.SketchRefreshEvery > 0 && tick%s.cfg.SketchRefreshEvery == 0 {
			s.rep.Refreshes++
			s.tree.RefreshSketches()
		}
		if launched < s.cfg.Queries && tick%s.cfg.QueryEvery == 0 {
			s.launch(launched > 0 && launched%s.cfg.ContentEvery == 0)
			launched++
		}
		s.sched.RunFor(simTick)
		s.harvest()
		if tick > 0 && tick%s.cfg.SweepEvery == 0 {
			s.sweep()
		}
	}
	for next < len(events) { // close remaining fault windows
		_ = inj.Inject(events[next])
		next++
	}
	s.sched.Run()
	s.harvest()

	// Quiet-world epilogue: one more distribution through the healthy tree
	// loads the term indexes, then two content searches read them back
	// before the closing sweep drains everything into the ledger.
	s.launch(false)
	s.sched.Run()
	s.harvest()
	for i := 0; i < 2; i++ {
		s.launch(true)
		s.sched.Run()
		s.harvest()
	}
	s.sweep()
	s.aud.FinishOutstanding()

	s.rep.Ok = s.aud.Ok()
	s.rep.Violations = s.aud.Counts()
	s.rep.Examples = s.aud.Violations()
	s.rep.Ticks = s.cfg.Ticks
	return s.rep
}

func (s *AttrScenario) nodeMap() map[string]graph.NodeID {
	nodes := make(map[string]graph.NodeID)
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		nodes[serverLabel(gs)] = serverID(gs)
	}
	return nodes
}

// SetSchedule installs a compiled fault schedule after construction (the
// surface needs the built scenario) and stretches the run past its horizon.
func (s *AttrScenario) SetSchedule(sched *faults.Schedule) {
	s.schedule = sched
	if sched != nil && sched.Horizon() > s.cfg.Ticks {
		s.cfg.Ticks = sched.Horizon()
	}
}

// FaultSurface lists what the chaos schedule may break: server crashes and
// latency only. Drops are excluded — broadcast queries and summaries are
// fire-and-forget, so a dropped edge message loses data without any node
// being observably at fault; the paper's answer to that is the timeout
// machinery already exercised by crashes.
func (s *AttrScenario) FaultSurface() faults.Spec {
	spec := faults.Spec{}
	for gs := 0; gs < s.pop.TotalServers(); gs++ {
		spec.Servers = append(spec.Servers, serverLabel(gs))
	}
	return spec
}

// Tree exposes the broadcast tree (tests assert on depth and timeout).
func (s *AttrScenario) Tree() *broadcast.Tree { return s.tree }

// Network exposes the simulated network.
func (s *AttrScenario) Network() *netsim.Network { return s.net }

// Snapshot returns counters and histograms (lat_broadcast,
// lat_convergecast, bcast_deposits, net_*).
func (s *AttrScenario) Snapshot() obs.Snapshot { return netSnapshot(s.reg, s.net) }
