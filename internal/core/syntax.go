// Package core assembles the paper's three mail-system designs into
// ready-to-run systems: SyntaxSystem (§3.1, syntax-directed naming with
// load-balanced server assignment), LocationSystem (§3.2, limited
// location-independent access), and AttributeSystem (§3.3, attribute-based
// naming over a back-bone MST). It is the library's primary entry point:
// examples, experiments and benchmarks all build worlds through it.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/assign"
	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/evalsys"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
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
	// Retention is each server's mailbox clean-up policy.
	Retention mail.Retention
	// Seed drives the simulation's deterministic randomness.
	Seed int64
	// DataDir, when set, makes every server's mailbox store durable: server
	// node N journals to DataDir/s<N>, and rebuilding the system over the
	// same directory recovers all buffered mail by WAL replay.
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode
}

// SyntaxSystem is a fully wired syntax-directed mail system (§3.1).
type SyntaxSystem struct {
	Sched *sim.Scheduler
	Net   *netsim.Network

	cfg       SyntaxConfig
	assigns   map[string]*assign.Assignment
	dirs      map[string]*server.Directory
	regionMap *server.RegionMap
	servers   map[graph.NodeID]*server.Server
	hosts     map[graph.NodeID]*client.Host
	agents    map[names.Name]*client.Agent

	hostToken  map[graph.NodeID]string
	renames    int64
	migrations int64
	reconfigs  int64

	reg   *obs.Registry
	trace *obs.Tracer
}

// NewSyntax builds the system: per region it runs the §3.1.1 assignment
// algorithm to derive authority lists, creates directories and servers, and
// attaches one agent per user.
func NewSyntax(cfg SyntaxConfig) (*SyntaxSystem, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	if cfg.AuthorityLen <= 0 {
		cfg.AuthorityLen = 2
	}
	sched := sim.New(cfg.Seed)
	reg := obs.NewRegistry()
	s := &SyntaxSystem{
		Sched:     sched,
		reg:       reg,
		trace:     obs.NewTracer(func() int64 { return int64(sched.Now()) }, reg),
		cfg:       cfg,
		assigns:   make(map[string]*assign.Assignment),
		dirs:      make(map[string]*server.Directory),
		regionMap: server.NewRegionMap(),
		servers:   make(map[graph.NodeID]*server.Server),
		hosts:     make(map[graph.NodeID]*client.Host),
		agents:    make(map[names.Name]*client.Agent),
		hostToken: make(map[graph.NodeID]string),
	}
	s.Net = netsim.New(s.Sched, cfg.Topology)

	// Partition nodes by region and kind.
	regionHosts := make(map[string][]graph.NodeID)
	regionServers := make(map[string][]graph.NodeID)
	for _, n := range cfg.Topology.Nodes() {
		switch n.Kind {
		case graph.KindHost:
			regionHosts[n.Region] = append(regionHosts[n.Region], n.ID)
			tok := n.Label
			if tok == "" {
				tok = fmt.Sprintf("h%d", n.ID)
			}
			s.hostToken[n.ID] = tok
		case graph.KindServer:
			regionServers[n.Region] = append(regionServers[n.Region], n.ID)
		}
	}
	regions := make([]string, 0, len(regionServers))
	for r := range regionServers {
		regions = append(regions, r)
	}
	sort.Strings(regions)

	commW, procW, procTime := assign.PaperWeights()
	for _, region := range regions {
		hosts := regionHosts[region]
		servers := regionServers[region]
		if len(hosts) == 0 {
			return nil, fmt.Errorf("core: region %s has servers but no hosts", region)
		}
		users := make(map[graph.NodeID]int, len(hosts))
		total := 0
		for _, h := range hosts {
			users[h] = len(cfg.UsersPerHost[h])
			total += users[h]
		}
		maxLoad := make(map[graph.NodeID]int, len(servers))
		cap := cfg.MaxLoad
		if cap <= 0 {
			cap = total/len(servers) + total/(4*len(servers)) + 4
		}
		for _, sv := range servers {
			maxLoad[sv] = cap
		}
		a, err := assign.New(assign.Config{
			Topology: cfg.Topology,
			Hosts:    hosts, Servers: servers,
			Users: users, MaxLoad: maxLoad,
			ProcTime: procTime, CommW: commW, ProcW: procW,
		})
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", region, err)
		}
		a.Run()
		s.assigns[region] = a

		dir := server.NewDirectory(region)
		s.dirs[region] = dir
		for _, sv := range servers {
			srv, err := server.New(server.Config{
				ID: sv, Region: region, Net: s.Net,
				Dir: dir, Regions: s.regionMap, Retention: cfg.Retention,
				Trace:   s.trace,
				DataDir: s.serverDataDir(sv), Fsync: cfg.Fsync,
			})
			if err != nil {
				return nil, err
			}
			s.servers[sv] = srv
		}
		lists := a.AuthorityLists(cfg.AuthorityLen)
		for _, h := range hosts {
			host, err := client.NewHost(s.Net, h)
			if err != nil {
				return nil, err
			}
			s.hosts[h] = host
			for _, tok := range cfg.UsersPerHost[h] {
				name := names.Name{Region: region, Host: s.hostToken[h], User: tok}
				if err := name.Validate(); err != nil {
					return nil, err
				}
				if err := dir.SetAuthority(name, lists[h]); err != nil {
					return nil, err
				}
				agent, err := client.NewAgent(name, host, s.lookupServer, lists[h])
				if err != nil {
					return nil, err
				}
				s.agents[name] = agent
			}
		}
	}
	return s, nil
}

func (s *SyntaxSystem) lookupServer(id graph.NodeID) *server.Server { return s.servers[id] }

// serverDataDir returns the durable store directory for a server node, or
// "" (memory store) when the system is not configured for durability.
func (s *SyntaxSystem) serverDataDir(id graph.NodeID) string {
	if s.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, fmt.Sprintf("s%d", id))
}

// Close syncs and closes every server's durable store (no-op for memory
// stores).
func (s *SyntaxSystem) Close() error {
	var first error
	for _, srv := range s.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Obs returns the deployment-wide instrument registry holding the tracer-fed
// "lat_<stage>" and "lat_e2e" histograms (in microticks; divide by sim.Unit
// for paper time units).
func (s *SyntaxSystem) Obs() *obs.Registry { return s.reg }

// Tracer returns the deployment-wide message-lifecycle tracer shared by
// every server, running on the simulated clock.
func (s *SyntaxSystem) Tracer() *obs.Tracer { return s.trace }

// Agent returns the user's mail agent.
func (s *SyntaxSystem) Agent(user names.Name) (*client.Agent, error) {
	a, ok := s.agents[user]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	return a, nil
}

// Users returns every user, sorted by name.
func (s *SyntaxSystem) Users() []names.Name {
	out := make([]names.Name, 0, len(s.agents))
	for u := range s.agents {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// Servers returns every server node, sorted.
func (s *SyntaxSystem) Servers() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.servers))
	for id := range s.servers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Server returns the server process on a node.
func (s *SyntaxSystem) Server(id graph.NodeID) (*server.Server, bool) {
	srv, ok := s.servers[id]
	return srv, ok
}

// Hosts returns every host process, sorted by node ID. Hosts collect the
// submission acks, which is how callers learn which submissions the system
// has durably accepted.
func (s *SyntaxSystem) Hosts() []*client.Host {
	out := make([]*client.Host, 0, len(s.hosts))
	for _, h := range s.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Assignment returns a region's load-balanced assignment.
func (s *SyntaxSystem) Assignment(region string) (*assign.Assignment, bool) {
	a, ok := s.assigns[region]
	return a, ok
}

// Directory returns a region's directory.
func (s *SyntaxSystem) Directory(region string) (*server.Directory, bool) {
	d, ok := s.dirs[region]
	return d, ok
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
// following §3.1.4: the user gets a new location-dependent name, is added at
// the new location, deleted at the old one, and a redirect forwards mail
// sent to the old name. It returns the new name.
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
	host, ok := s.hosts[newHost]
	if !ok {
		return names.Name{}, fmt.Errorf("%w: host %d not wired", ErrUnknownNode, newHost)
	}
	newName := old.Rename(node.Region, s.hostToken[newHost])
	if _, exists := s.agents[newName]; exists {
		return names.Name{}, fmt.Errorf("core: %v already exists at destination", newName)
	}

	// Drain mail buffered under the old name before the handover.
	agent.GetMail()

	// Add at the new location (rebalancing the destination region).
	newAssign := s.assigns[node.Region]
	if _, err := newAssign.AddUsers(newHost, 1); err != nil {
		return names.Name{}, err
	}
	newList := newAssign.AuthorityLists(s.cfg.AuthorityLen)[newHost]
	if err := s.dirs[node.Region].SetAuthority(newName, newList); err != nil {
		return names.Name{}, err
	}
	newAgent, err := client.NewAgent(newName, host, s.lookupServer, newList)
	if err != nil {
		return names.Name{}, err
	}
	// Carry the drained inbox conceptually: the paper moves the user, not
	// the mailbox; retrieved mail stays with the user interface.
	s.agents[newName] = newAgent

	// Delete at the old location and install the redirect.
	oldRegion := old.Region
	if a, ok := s.assigns[oldRegion]; ok {
		if oldHostNode, ok2 := s.hostNodeByToken(oldRegion, old.Host); ok2 {
			if _, err := a.RemoveUsers(oldHostNode, 1); err != nil {
				return names.Name{}, err
			}
		}
	}
	if err := s.dirs[oldRegion].SetAuthority(old, nil); err != nil {
		return names.Name{}, err
	}
	if err := s.dirs[oldRegion].SetRedirect(old, newName); err != nil {
		return names.Name{}, err
	}
	delete(s.agents, old)
	s.migrations++
	s.renames++ // syntax-directed migration always renames
	return newName, nil
}

func (s *SyntaxSystem) hostNodeByToken(region, token string) (graph.NodeID, bool) {
	for id, tok := range s.hostToken {
		if tok != token {
			continue
		}
		if n, ok := s.cfg.Topology.Node(id); ok && n.Region == region {
			return id, true
		}
	}
	return 0, false
}

// AddServer wires a new server node into a region (§3.1.3c): the assignment
// rebalances onto it and every affected user's authority list is refreshed
// in the directory and the live agents.
func (s *SyntaxSystem) AddServer(id graph.NodeID, region string, maxLoad int) error {
	if _, dup := s.servers[id]; dup {
		return fmt.Errorf("core: server %d already present", id)
	}
	a, ok := s.assigns[region]
	if !ok {
		return fmt.Errorf("core: unknown region %s", region)
	}
	srv, err := server.New(server.Config{
		ID: id, Region: region, Net: s.Net,
		Dir: s.dirs[region], Regions: s.regionMap, Retention: s.cfg.Retention,
		Trace:   s.trace,
		DataDir: s.serverDataDir(id), Fsync: s.cfg.Fsync,
	})
	if err != nil {
		return err
	}
	s.servers[id] = srv
	if _, err := a.AddServer(id, maxLoad); err != nil {
		return err
	}
	return s.refreshAuthority(region)
}

// refreshAuthority pushes recomputed authority lists to the directory and
// agents of a region, counting the updates as reconfiguration traffic.
func (s *SyntaxSystem) refreshAuthority(region string) error {
	a := s.assigns[region]
	lists := a.AuthorityLists(s.cfg.AuthorityLen)
	for name, agent := range s.agents {
		if name.Region != region {
			continue
		}
		hostNode, ok := s.hostNodeByToken(region, name.Host)
		if !ok {
			continue
		}
		list := lists[hostNode]
		if len(list) == 0 {
			continue
		}
		if err := s.dirs[region].SetAuthority(name, list); err != nil {
			return err
		}
		if err := agent.SetAuthority(list); err != nil {
			return err
		}
		s.reconfigs++
	}
	return nil
}

// Evaluate harvests the run into a §4 criteria report.
func (s *SyntaxSystem) Evaluate() evalsys.Report {
	c := evalsys.NewCollector("syntax-directed")
	for _, a := range s.agents {
		st := a.Stats()
		if st.Retrievals > 0 {
			// First entry carries the agent's whole poll count, the rest
			// zero: the collector's mean is then total polls / retrievals.
			c.CountRetrieval(st.Polls)
			for i := 1; i < st.Retrievals; i++ {
				c.CountRetrieval(0)
			}
		}
	}
	var submitted, delivered, duplicates, retries, evicted, notifies, storage int64
	for _, srv := range s.servers {
		st := srv.Stats()
		submitted += st.Get("submissions")
		delivered += st.Get("deposits_local")
		duplicates += st.Get("duplicate_deposits")
		retries += st.Get("retries")
		evicted += st.Get("cleanup_evicted")
		notifies += st.Get("notifies")
		storage += int64(srv.StoredBytes())
	}
	for i := int64(0); i < submitted; i++ {
		c.CountSubmission(true)
	}
	c.CountDelivered(int(delivered))
	c.CountDuplicates(int(duplicates))
	c.CountRetries(int(retries))
	c.CountEvicted(int(evicted))
	c.CountNotified(int(notifies))
	for i := int64(0); i < s.migrations; i++ {
		c.CountMigration(1) // syntax-directed migration always renames
	}
	c.CountReconfigMessages(s.reconfigs)
	// Response time (§4.4) comes straight from the lifecycle traces:
	// submission → retrieval per message, on the simulated clock.
	for _, id := range s.trace.IDs() {
		tr, _ := s.trace.Trace(id)
		sub, okS := tr.StageAt(obs.StageSubmit)
		ret, okR := tr.StageAt(obs.StageRetrieve)
		if okS && okR {
			c.ObserveResponse(sim.Time(ret - sub))
		}
	}
	net := s.Net.Stats()
	c.SetTraffic(net.Get("cost_milli"), net.Get("delivered"))
	c.SetStorage(storage)
	c.SetCapabilities(false, false)
	return c.Report()
}
