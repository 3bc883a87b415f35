package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/evalsys"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/locind"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// LocationConfig describes a limited location-independent world (§3.2). The
// design's flexibility lives inside a region, so the system is built for one
// region of the topology.
type LocationConfig struct {
	Topology *graph.Graph
	Region   string
	// UsersPerHost lists the user tokens whose primary location is each
	// host node.
	UsersPerHost map[graph.NodeID][]string
	// Subgroups is the hash modulus (0 = 2× server count).
	Subgroups int
	Seed      int64
}

// LocationSystem is a fully wired location-independent mail system for one
// region.
type LocationSystem struct {
	Sched *sim.Scheduler
	Net   *netsim.Network
	Sys   *locind.System

	agents     map[names.Name]*locind.Agent
	migrations int64
}

// NewLocation builds the region's system: every host gets a host process,
// every user an agent at their primary location.
func NewLocation(cfg LocationConfig) (*LocationSystem, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	sched := sim.New(cfg.Seed)
	net := netsim.New(sched, cfg.Topology)
	var servers []graph.NodeID
	hosts := make(map[string]graph.NodeID)
	for _, n := range cfg.Topology.NodesInRegion(cfg.Region) {
		switch n.Kind {
		case graph.KindServer:
			servers = append(servers, n.ID)
		case graph.KindHost:
			tok := n.Label
			if tok == "" {
				tok = fmt.Sprintf("h%d", n.ID)
			}
			hosts[tok] = n.ID
		}
	}
	sys, err := locind.NewSystem(locind.Config{
		Region: cfg.Region, Net: net,
		Servers: servers, Hosts: hosts, Subgroups: cfg.Subgroups,
	})
	if err != nil {
		return nil, err
	}
	s := &LocationSystem{
		Sched: sched, Net: net, Sys: sys,
		agents: make(map[names.Name]*locind.Agent),
	}
	toks := make([]string, 0, len(hosts))
	for tok := range hosts {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		id := hosts[tok]
		if _, err := sys.AddHost(tok, id); err != nil {
			return nil, err
		}
	}
	for _, tok := range toks {
		id := hosts[tok]
		for _, user := range cfg.UsersPerHost[id] {
			name := names.Name{Region: cfg.Region, Host: tok, User: user}
			if err := name.Validate(); err != nil {
				return nil, err
			}
			a, err := sys.NewAgent(name)
			if err != nil {
				return nil, err
			}
			s.agents[name] = a
		}
	}
	return s, nil
}

// Agent returns a user's agent.
func (s *LocationSystem) Agent(user names.Name) (*locind.Agent, error) {
	a, ok := s.agents[user]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	return a, nil
}

// Users returns every user, sorted.
func (s *LocationSystem) Users() []names.Name {
	out := make([]names.Name, 0, len(s.agents))
	for u := range s.agents {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// Run advances the simulation to quiescence.
func (s *LocationSystem) Run() { s.Sched.Run() }

// RunFor advances the simulation by d.
func (s *LocationSystem) RunFor(d sim.Time) { s.Sched.RunFor(d) }

// MigrateUser moves a user to another host in the region — §3.2.4: "users
// can move freely within a region without changing names. The server
// assignment of the migrated user need not be changed." The agent logs in
// at the new location so servers learn where to alert.
func (s *LocationSystem) MigrateUser(user names.Name, newHost graph.NodeID) error {
	a, ok := s.agents[user]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	if err := a.MoveTo(newHost); err != nil {
		return err
	}
	s.migrations++
	return a.Login()
}

// Evaluate harvests the run into a §4 criteria report.
func (s *LocationSystem) Evaluate() evalsys.Report {
	c := evalsys.NewCollector("location-independent")
	st := s.Sys.Stats()
	submitted := st.Get("submissions")
	for i := int64(0); i < submitted; i++ {
		c.CountSubmission(true)
	}
	c.CountDelivered(int(st.Get("deposits")))
	c.CountDuplicates(int(st.Get("duplicate_deposits")))
	c.CountRetries(int(st.Get("deposit_retries")))
	c.CountNotified(int(st.Get("notify_home") + st.Get("notify_roaming") + st.Get("notify_known")))
	for _, a := range s.agents {
		if r := a.Retrievals(); r > 0 {
			// First entry carries the agent's whole poll count; the mean
			// then equals total polls / retrievals.
			c.CountRetrieval(a.Polls())
			for i := 1; i < r; i++ {
				c.CountRetrieval(0)
			}
		}
	}
	for i := int64(0); i < s.migrations; i++ {
		c.CountMigration(0) // intra-region moves never rename
	}
	net := s.Net.Stats()
	c.SetTraffic(net.Get("cost_milli"), net.Get("delivered"))
	c.SetCapabilities(false, true)
	return c.Report()
}
