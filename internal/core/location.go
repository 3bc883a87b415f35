package core

import (
	"errors"
	"fmt"
	"sort"

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
	Seed         int64
}

// LocationSystem is a fully wired location-independent mail system for one
// region.
type LocationSystem struct {
	Sched *sim.Scheduler
	Net   *netsim.Network
	Sys   *locind.System

	agents map[names.Name]*locind.Agent
}

// NewLocation builds the region's system on its own network: a
// locind.System over the region's servers, joined to a federation of one,
// with every host added in token order and one agent per user at the user's
// primary host.
func NewLocation(cfg LocationConfig) (*LocationSystem, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	type hostEntry struct {
		tok string
		id  graph.NodeID
	}
	var servers []graph.NodeID
	var hosts []hostEntry
	for _, n := range cfg.Topology.NodesInRegion(cfg.Region) {
		switch n.Kind {
		case graph.KindServer:
			servers = append(servers, n.ID)
		case graph.KindHost:
			hosts = append(hosts, hostEntry{hostToken(n), n.ID})
		}
	}
	if len(servers) == 0 {
		return nil, fmt.Errorf("core: region %s has no servers", cfg.Region)
	}
	sched := sim.New(cfg.Seed)
	net := netsim.New(sched, cfg.Topology)
	sys, err := locind.NewSystem(locind.Config{Region: cfg.Region, Net: net, Servers: servers})
	if err != nil {
		return nil, fmt.Errorf("region %s: %w", cfg.Region, err)
	}
	if err := locind.NewFederation().Add(sys); err != nil {
		return nil, err
	}
	s := &LocationSystem{Sched: sched, Net: net, Sys: sys, agents: make(map[names.Name]*locind.Agent)}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].tok < hosts[j].tok })
	for _, h := range hosts {
		if _, err := sys.AddHost(h.tok, h.id); err != nil {
			return nil, err
		}
	}
	for _, h := range hosts {
		for _, user := range cfg.UsersPerHost[h.id] {
			name := names.Name{Region: cfg.Region, Host: h.tok, User: user}
			if err := name.Validate(); err != nil {
				return nil, err
			}
			if s.agents[name], err = sys.NewAgent(name); err != nil {
				return nil, err
			}
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

// Run advances the simulation to quiescence.
func (s *LocationSystem) Run() { s.Sched.Run() }

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
	return a.Login()
}
