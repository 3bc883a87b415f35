package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// AttributeConfig describes an attribute-based mail system (§3.3): a
// multi-region internetwork whose nodes hold attribute registries, searched
// and mass-mailed over the back-bone MST.
type AttributeConfig struct {
	Topology *graph.Graph
	// Profiles assigns user profiles to the node that is authoritative for
	// them.
	Profiles map[graph.NodeID][]*attr.Profile
	// Distributed selects the GHS construction for the local MSTs.
	Distributed bool
	// Timeout is the convergecast child-timeout base.
	Timeout sim.Time
	Seed    int64
}

// AttributeSystem is a fully wired attribute-based mail system.
type AttributeSystem struct {
	Sched *sim.Scheduler
	Net   *netsim.Network
	// Backbone is the two-level MST structure broadcasts run over.
	Backbone mst.BackboneResult

	tree       *broadcast.TreeOf[names.Name]
	registries map[graph.NodeID]*attr.Registry
}

// SearchResult is the outcome of one attribute search.
type SearchResult struct {
	Matches []names.Name
	// Unavailable lists nodes whose subtrees timed out; their users may be
	// missing from Matches.
	Unavailable []graph.NodeID
	// NodesSearched counts the registries that evaluated the query.
	NodesSearched int
	// TrafficCost is the edge-weight cost this search added to the network.
	TrafficCost float64
}

// NewAttribute builds the system: computes the back-bone MST, installs an
// attribute registry per node, and wires the broadcast tree.
func NewAttribute(cfg AttributeConfig) (*AttributeSystem, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	backbone, err := mst.Backbone(cfg.Topology, cfg.Distributed)
	if err != nil {
		return nil, err
	}
	sched := sim.New(cfg.Seed)
	net := netsim.New(sched, cfg.Topology)
	s := &AttributeSystem{
		Sched:      sched,
		Net:        net,
		Backbone:   backbone,
		registries: make(map[graph.NodeID]*attr.Registry),
	}
	for _, n := range cfg.Topology.Nodes() {
		reg := attr.NewRegistry()
		for _, p := range cfg.Profiles[n.ID] {
			if err := reg.Put(p); err != nil {
				return nil, fmt.Errorf("node %d: %w", n.ID, err)
			}
		}
		s.registries[n.ID] = reg
	}
	tree, err := broadcast.SetupOf(broadcast.ConfigOf[names.Name]{
		Net:     net,
		Tree:    backbone.Combined,
		Timeout: cfg.Timeout,
		Eval: func(id graph.NodeID, query any) []names.Name {
			q, ok := query.(attr.Query)
			if !ok {
				return nil
			}
			users, _ := s.registries[id].Search(q) // a registry that cannot answer contributes nothing
			return users
		},
	})
	if err != nil {
		return nil, err
	}
	s.tree = tree
	return s, nil
}

// Registry returns the attribute registry on a node.
func (s *AttributeSystem) Registry(id graph.NodeID) (*attr.Registry, bool) {
	r, ok := s.registries[id]
	return r, ok
}

// CostTable returns the §3.3.1-B per-region cost-estimation table from the
// perspective of a source region.
func (s *AttributeSystem) CostTable(sourceRegion string) ([]mst.RegionCostRow, error) {
	return s.Backbone.CostTable(sourceRegion)
}

// SelectRegions applies the budget flow control: the per-region estimates a
// sender can afford.
func (s *AttributeSystem) SelectRegions(sourceRegion string, budget float64) (map[string]bool, float64, error) {
	rows, err := s.CostTable(sourceRegion)
	if err != nil {
		return nil, 0, err
	}
	chosen, cost := broadcast.SelectRegions(rows, budget)
	return chosen, cost, nil
}

// Search broadcasts an attribute query from origin over the MST (restricted
// to targets if non-nil), runs the simulation until the convergecast
// completes, and returns the matching users.
func (s *AttributeSystem) Search(origin graph.NodeID, q attr.Query, targets map[string]bool) (SearchResult, error) {
	if err := q.Validate(); err != nil {
		return SearchResult{}, err
	}
	costBefore := s.Net.Stats().Get("cost_milli")
	id, err := s.tree.Start(origin, q, targets)
	if err != nil {
		return SearchResult{}, err
	}
	s.Sched.Run()
	sum, _, _, ok := s.tree.Take(id)
	if !ok {
		return SearchResult{}, errors.New("core: search did not complete")
	}
	slices.SortFunc(sum.Items, names.Compare)
	return SearchResult{
		Matches:       sum.Items,
		Unavailable:   sum.Unavailable,
		NodesSearched: sum.Nodes,
		TrafficCost:   float64(s.Net.Stats().Get("cost_milli")-costBefore) / 1000,
	}, nil
}

// FloodSearch is the naive baseline: the query is unicast from origin to
// every node and each node unicasts its matches straight back. Same answer,
// more traffic — the comparison behind experiment E4.
func (s *AttributeSystem) FloodSearch(origin graph.NodeID, q attr.Query) (SearchResult, error) {
	if err := q.Validate(); err != nil {
		return SearchResult{}, err
	}
	costBefore := s.Net.Stats().Get("cost_milli")
	res := SearchResult{}
	ids := s.Net.Topology().NodeIDs()
	var matches []names.Name
	for _, id := range ids {
		users, err := s.registries[id].Search(q)
		if err != nil {
			continue
		}
		res.NodesSearched++
		matches = append(matches, users...)
		if id == origin {
			continue
		}
		// Account the query out and the response back.
		if c, err := s.Net.Cost(origin, id); err == nil {
			s.Net.Stats().Add("cost_milli", int64(2*c*1000))
			s.Net.Stats().Add("delivered", 2)
		}
	}
	slices.SortFunc(matches, names.Compare)
	res.Matches = matches
	res.TrafficCost = float64(s.Net.Stats().Get("cost_milli")-costBefore) / 1000
	return res, nil
}

// MassMail performs the §3.3 mass-distribution flow: search for recipients
// under the budget's region selection, then charge one tree traversal for
// distributing the message to the selected regions. It returns the search
// result and the estimated distribution cost.
func (s *AttributeSystem) MassMail(origin graph.NodeID, originRegion string, q attr.Query, budget float64) (SearchResult, float64, error) {
	targets, estimate, err := s.SelectRegions(originRegion, budget)
	if err != nil {
		return SearchResult{}, 0, err
	}
	if len(targets) == 0 {
		return SearchResult{}, 0, fmt.Errorf("core: budget %v affords no region", budget)
	}
	res, err := s.Search(origin, q, targets)
	if err != nil {
		return SearchResult{}, 0, err
	}
	return res, estimate, nil
}
