package core

import (
	"fmt"

	"github.com/largemail/largemail/internal/evalsys"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/locind"
	"github.com/largemail/largemail/internal/names"
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
// region: a LocationFederation of one, with the region's system at hand.
type LocationSystem struct {
	*LocationFederation
	Sys *locind.System

	migrations int64
}

// NewLocation builds the region's system: every host gets a host process,
// every user an agent at their primary location.
func NewLocation(cfg LocationConfig) (*LocationSystem, error) {
	f, err := newFederation(FederationConfig{
		Topology: cfg.Topology, UsersPerHost: cfg.UsersPerHost, Seed: cfg.Seed,
	}, []string{cfg.Region})
	if err != nil {
		return nil, err
	}
	return &LocationSystem{LocationFederation: f, Sys: f.systems[cfg.Region]}, nil
}

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
	var submitted, delivered, duplicates, retries, notifies int64
	for _, id := range s.Sys.Servers() {
		srv, _ := s.Sys.Server(id)
		st := srv.Stats()
		submitted += st.Get("submissions")
		delivered += st.Get("deposits_local")
		duplicates += st.Get("duplicate_deposits")
		retries += st.Get("retries")
		notifies += st.Get("notifies")
	}
	for i := int64(0); i < submitted; i++ {
		c.CountSubmission(true)
	}
	c.CountDelivered(int(delivered))
	c.CountDuplicates(int(duplicates))
	c.CountRetries(int(retries))
	// A user logged on with the depositing server is notified as in §3.1;
	// the others are found by §3.2.2c's probe or consultation.
	c.CountNotified(int(notifies + st.Get("notify_home") + st.Get("notify_roaming")))
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
