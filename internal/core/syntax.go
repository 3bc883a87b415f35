// Package core assembles the paper's three mail-system designs into
// ready-to-run systems: SyntaxSystem (§3.1, syntax-directed naming with
// load-balanced server assignment), LocationSystem (§3.2, limited
// location-independent access), and AttributeSystem (§3.3, attribute-based
// naming over a back-bone MST). The examples, loadgen's simulated driver
// (and through it the benchmarks) and the experiments build their worlds
// through it.
package core

import (
	"errors"
	"fmt"

	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// Errors reported by core systems.
var (
	ErrUnknownUser = errors.New("core: unknown user")
	ErrUnknownNode = errors.New("core: unknown node")
	ErrNotAHost    = errors.New("core: node is not a host")
)

// SyntaxConfig describes a syntax-directed world. Hosts and servers are
// discovered from the topology's node kinds and regions; user names are
// region.<host label>.<token>.
type SyntaxConfig struct {
	Topology *graph.Graph
	// UsersPerHost lists the user tokens homed on each host node.
	UsersPerHost map[graph.NodeID][]string
	// AuthorityLen is the authority-list length per user (default 2,
	// clamped to the region's server count).
	AuthorityLen int
	// MaxLoad is the per-server capacity M_j; zero derives a capacity that
	// fits the population with ~25% headroom.
	MaxLoad int
	// Seed drives the simulation's deterministic randomness.
	Seed int64
}

// SyntaxSystem is a fully wired syntax-directed mail system (§3.1): the
// Fabric plus every user's agent, created up front and keyed by name.
type SyntaxSystem struct {
	*Fabric

	cfg    SyntaxConfig
	agents map[names.Name]*client.Agent
	hostOf map[names.Name]graph.NodeID // each user's host node
	trace  *obs.Tracer
}

// NewSyntax builds the system: the fabric over the topology (per region the
// §3.1.1 assignment, directory, servers, hosts and authority lists), and one
// agent per user.
func NewSyntax(cfg SyntaxConfig) (*SyntaxSystem, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	sched := sim.New(cfg.Seed)
	s := &SyntaxSystem{
		trace:  obs.NewTracer(func() int64 { return int64(sched.Now()) }, obs.NewRegistry()),
		cfg:    cfg,
		agents: make(map[names.Name]*client.Agent),
		hostOf: make(map[names.Name]graph.NodeID),
	}
	counts := make(map[graph.NodeID]int, len(cfg.UsersPerHost))
	for h, toks := range cfg.UsersPerHost {
		counts[h] = len(toks)
	}
	tmpl := server.Config{Net: netsim.New(sched, cfg.Topology), Trace: s.trace}
	var err error
	if s.Fabric, err = NewFabric(cfg.Topology, tmpl, counts, cfg.AuthorityLen, cfg.MaxLoad); err != nil {
		return nil, err
	}
	s.Fabric.Users = s.eachUser

	for _, n := range cfg.Topology.Nodes() {
		if n.Kind != graph.KindHost || s.hosts[n.ID] == nil {
			continue
		}
		for _, tok := range cfg.UsersPerHost[n.ID] {
			name := names.Name{Region: n.Region, Host: hostToken(n), User: tok}
			if err := name.Validate(); err != nil {
				return nil, err
			}
			s.hostOf[name] = n.ID
			if s.agents[name], err = s.Register(name, n.ID, s.lists[n.ID]); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// eachUser is the fabric's Users hook over the by-name table.
func (s *SyntaxSystem) eachUser(region string, fn func(a *client.Agent, host graph.NodeID, pinned bool)) {
	for name, agent := range s.agents {
		if name.Region == region {
			fn(agent, s.hostOf[name], false)
		}
	}
}

// hostToken is the name token of a host node: its label, or h<node>.
func hostToken(n graph.Node) string {
	if n.Label == "" {
		return fmt.Sprintf("h%d", n.ID)
	}
	return n.Label
}

// Agent returns the user's mail agent.
func (s *SyntaxSystem) Agent(user names.Name) (*client.Agent, error) {
	a, ok := s.agents[user]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	return a, nil
}

// Send submits a message from one user. The simulation must be advanced
// (Run/RunFor) for delivery to happen.
func (s *SyntaxSystem) Send(from names.Name, to []names.Name, subject, body string) error {
	a, err := s.Agent(from)
	if err != nil {
		return err
	}
	_, err = a.Send(to, subject, body)
	return err
}

// Run advances the simulation to quiescence.
func (s *SyntaxSystem) Run() { s.Sched.Run() }

// RunFor advances the simulation by d.
func (s *SyntaxSystem) RunFor(d sim.Time) { s.Sched.RunFor(d) }

// MigrateUser moves a user to a new host, possibly in another region,
// following §3.1.4 (Fabric.Move): the user gets a new location-dependent
// name, is added at the new location, deleted at the old one, and a redirect
// forwards mail sent to the old name. It returns the new name.
func (s *SyntaxSystem) MigrateUser(old names.Name, newHost graph.NodeID) (names.Name, error) {
	agent, ok := s.agents[old]
	if !ok {
		return names.Name{}, fmt.Errorf("%w: %v", ErrUnknownUser, old)
	}
	node, ok := s.cfg.Topology.Node(newHost)
	if !ok {
		return names.Name{}, fmt.Errorf("%w: %d", ErrUnknownNode, newHost)
	}
	if node.Kind != graph.KindHost {
		return names.Name{}, fmt.Errorf("%w: %d", ErrNotAHost, newHost)
	}
	newName := old.Rename(node.Region, hostToken(node))
	if _, exists := s.agents[newName]; exists {
		return names.Name{}, fmt.Errorf("core: %v already exists at destination", newName)
	}
	moved, _, err := s.Move(agent, s.hostOf[old], newHost, newName)
	if err != nil {
		return names.Name{}, err
	}
	s.agents[newName], s.hostOf[newName] = moved, newHost
	delete(s.agents, old)
	delete(s.hostOf, old)
	return newName, nil
}
