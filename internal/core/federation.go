package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/locind"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// FederationConfig describes a multi-region location-independent world
// (§3.2 complete with the inter-region forwarding of §3.2.2b). Regions,
// hosts and servers are discovered from the topology's node tags.
type FederationConfig struct {
	Topology *graph.Graph
	// UsersPerHost lists the user tokens whose primary location is each
	// host node.
	UsersPerHost map[graph.NodeID][]string
	Seed         int64
}

// LocationFederation is a set of federated location-independent regional
// systems on one simulated network.
type LocationFederation struct {
	Sched *sim.Scheduler
	Net   *netsim.Network
	Fed   *locind.Federation

	systems map[string]*locind.System
	agents  map[names.Name]*locind.Agent
}

// NewLocationFederation builds one locind.System per region in the topology
// and federates them.
func NewLocationFederation(cfg FederationConfig) (*LocationFederation, error) {
	return newFederation(cfg, nil)
}

// newFederation is the one §3.2 builder: a locind.System for each of regions
// (nil: every region of the topology) that has servers, with every host added
// in token order and one agent per user at their primary location.
func newFederation(cfg FederationConfig, regions []string) (*LocationFederation, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	sched := sim.New(cfg.Seed)
	net := netsim.New(sched, cfg.Topology)
	f := &LocationFederation{
		Sched: sched, Net: net, Fed: locind.NewFederation(),
		systems: make(map[string]*locind.System),
		agents:  make(map[names.Name]*locind.Agent),
	}
	if regions == nil {
		regions = cfg.Topology.Regions() // sorted
	}
	for _, region := range regions {
		type hostEntry struct {
			tok string
			id  graph.NodeID
		}
		var servers []graph.NodeID
		var hosts []hostEntry
		for _, n := range cfg.Topology.NodesInRegion(region) {
			switch n.Kind {
			case graph.KindServer:
				servers = append(servers, n.ID)
			case graph.KindHost:
				hosts = append(hosts, hostEntry{hostToken(n), n.ID})
			}
		}
		if len(servers) == 0 {
			continue // region without mail service (routers only)
		}
		sys, err := locind.NewSystem(locind.Config{
			Region: region, Net: net, Servers: servers,
		})
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", region, err)
		}
		if err := f.Fed.Add(sys); err != nil {
			return nil, err
		}
		f.systems[region] = sys
		sort.Slice(hosts, func(i, j int) bool { return hosts[i].tok < hosts[j].tok })
		for _, h := range hosts {
			if _, err := sys.AddHost(h.tok, h.id); err != nil {
				return nil, err
			}
		}
		for _, h := range hosts {
			for _, user := range cfg.UsersPerHost[h.id] {
				name := names.Name{Region: region, Host: h.tok, User: user}
				if err := name.Validate(); err != nil {
					return nil, err
				}
				a, err := sys.NewAgent(name)
				if err != nil {
					return nil, err
				}
				f.agents[name] = a
			}
		}
	}
	if len(f.systems) == 0 {
		return nil, errors.New("core: no regions with servers")
	}
	return f, nil
}

// Agent returns a user's agent, wherever their region is.
func (f *LocationFederation) Agent(user names.Name) (*locind.Agent, error) {
	a, ok := f.agents[user]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	return a, nil
}

// System returns one region's system.
func (f *LocationFederation) System(region string) (*locind.System, bool) {
	s, ok := f.systems[region]
	return s, ok
}

// Users returns every user, sorted.
func (f *LocationFederation) Users() []names.Name {
	out := make([]names.Name, 0, len(f.agents))
	for u := range f.agents {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// Run advances the simulation to quiescence.
func (f *LocationFederation) Run() { f.Sched.Run() }

// RunFor advances the simulation by d.
func (f *LocationFederation) RunFor(d sim.Time) { f.Sched.RunFor(d) }
