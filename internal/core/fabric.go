package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/assign"
	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// Fabric is the §3.1 world without its users: per region the §3.1.1
// assignment, the directory, the servers, the hosts and each host's authority
// list, plus the three reconfigurations — server addition and deletion
// (§3.1.3c) and the user move (§3.1.4). It is the only place such a world is
// built or changed. SyntaxSystem (every user up front, keyed by name) and
// loadgen.SimDriver (users on first touch, keyed by index) are user tables
// over one: they create the agents, and the fabric reaches them through Users
// when a region's lists change.
type Fabric struct {
	Sched *sim.Scheduler
	Net   *netsim.Network

	// Users is the table's half of a list refresh: it calls fn once for every
	// user of region the table has created, with the user's agent, host node,
	// and whether a placement policy chose the user's list (such a user keeps
	// it through a reconfiguration, minus the servers leaving service).
	Users func(region string, fn func(a *client.Agent, host graph.NodeID, pinned bool))

	tmpl         server.Config // every server's configuration but ID, Region, Dir, Regions, DataDir
	authorityLen int
	assigns      map[string]*assign.Assignment
	dirs         map[string]*server.Directory
	regionMap    *server.RegionMap
	servers      map[graph.NodeID]*server.Server
	active       []graph.NodeID // servers in service, sorted
	hosts        map[graph.NodeID]*client.Host
	lists        map[graph.NodeID][]graph.NodeID // per host, current
	lookup       client.Directory                // Lookup, bound once and shared by every agent
	relisted     int64                           // per-user list updates pushed: §3.1.2a's maintenance traffic
}

// NewFabric builds the world over topo: per region (hosts and servers are the
// nodes tagged so) it runs the §3.1.1 assignment over the per-host user
// counts, creates the directory, a server per server node from the tmpl
// template (Net required; DataDir, when set, is the parent of one directory
// per server, s<node>) and a host process per host node, and derives every
// host's authority list. maxLoad is the per-server capacity M_j; zero derives
// one that fits the region's population with ~25% headroom.
func NewFabric(topo *graph.Graph, tmpl server.Config, users map[graph.NodeID]int, authorityLen, maxLoad int) (*Fabric, error) {
	if topo == nil || tmpl.Net == nil {
		return nil, errors.New("core: nil topology or network")
	}
	if authorityLen <= 0 {
		authorityLen = 2
	}
	f := &Fabric{
		Sched: tmpl.Net.Scheduler(), Net: tmpl.Net,
		tmpl: tmpl, authorityLen: authorityLen,
		assigns:   make(map[string]*assign.Assignment),
		dirs:      make(map[string]*server.Directory),
		regionMap: server.NewRegionMap(),
		servers:   make(map[graph.NodeID]*server.Server),
		hosts:     make(map[graph.NodeID]*client.Host),
		lists:     make(map[graph.NodeID][]graph.NodeID),
	}
	f.lookup = f.Lookup
	commW, procW, procTime := assign.PaperWeights()
	for _, region := range topo.Regions() { // sorted
		var hosts, servers []graph.NodeID
		for _, n := range topo.NodesInRegion(region) {
			switch n.Kind {
			case graph.KindHost:
				hosts = append(hosts, n.ID)
			case graph.KindServer:
				servers = append(servers, n.ID)
			}
		}
		if len(servers) == 0 {
			continue // a region without mail service
		}
		if len(hosts) == 0 {
			return nil, fmt.Errorf("core: region %s has servers but no hosts", region)
		}
		capacity := maxLoad
		if capacity <= 0 {
			total := 0
			for _, h := range hosts {
				total += users[h]
			}
			capacity = total/len(servers) + total/(4*len(servers)) + 4
		}
		caps := make(map[graph.NodeID]int, len(servers))
		for _, sv := range servers {
			caps[sv] = capacity
		}
		a, err := assign.New(assign.Config{
			Topology: topo,
			Hosts:    hosts, Servers: servers,
			Users: users, MaxLoad: caps,
			ProcTime: procTime, CommW: commW, ProcW: procW,
		})
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", region, err)
		}
		a.Run()
		f.assigns[region] = a
		f.dirs[region] = server.NewDirectory(region)
		for _, sv := range servers {
			if err := f.startServer(sv, region); err != nil {
				return nil, err
			}
		}
		for _, h := range hosts {
			if f.hosts[h], err = client.NewHost(f.Net, h); err != nil {
				return nil, err
			}
		}
		f.relist(region)
	}
	return f, nil
}

// startServer starts node id's server process in region and puts it in
// service.
func (f *Fabric) startServer(id graph.NodeID, region string) error {
	cfg := f.tmpl
	cfg.ID, cfg.Region, cfg.Dir, cfg.Regions = id, region, f.dirs[region], f.regionMap
	if cfg.DataDir != "" {
		cfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("s%d", id))
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	f.servers[id] = srv
	at, _ := slices.BinarySearch(f.active, id)
	f.active = slices.Insert(f.active, at, id)
	return nil
}

// Register enters a user of the host on node host into their region's
// directory with the authority list and returns their agent. The table over
// the fabric calls it for each user it creates, normally with the host's list.
func (f *Fabric) Register(name names.Name, host graph.NodeID, list []graph.NodeID) (*client.Agent, error) {
	if err := f.dirs[name.Region].SetAuthority(name, list); err != nil {
		return nil, err
	}
	return client.NewAgent(name, f.hosts[host], f.lookup, list)
}

// relist recomputes region's per-host authority lists from its assignment.
func (f *Fabric) relist(region string) {
	for h, list := range f.assigns[region].AuthorityLists(f.authorityLen) {
		f.lists[h] = list
	}
}

// refresh is the §3.1.3 reconfiguration broadcast: region's recomputed lists
// go to the directory entry and the agent of every user the table has made.
func (f *Fabric) refresh(region string) error {
	f.relist(region)
	if f.Users == nil {
		return nil
	}
	var first error
	set := func(a *client.Agent, list []graph.NodeID) {
		err := f.dirs[region].SetAuthority(a.User(), list)
		if err == nil {
			err = a.SetAuthority(list)
		}
		if err != nil && first == nil {
			first = err
		}
		f.relisted++
	}
	loads := f.assigns[region].Loads() // the servers in service after the change
	f.Users(region, func(a *client.Agent, host graph.NodeID, pinned bool) {
		if pinned {
			// The policy's list stands; the reconfiguration only strips
			// servers leaving service. Emptied, it falls back to the host's.
			kept := make([]graph.NodeID, 0, len(a.Authority()))
			for _, sv := range a.Authority() {
				if _, ok := loads[sv]; ok {
					kept = append(kept, sv)
				}
			}
			if len(kept) > 0 {
				set(a, kept)
				return
			}
		}
		if list := f.lists[host]; len(list) > 0 {
			set(a, list)
		}
	})
	return first
}

// AddServer wires server node id into region (§3.1.3c): the server process
// starts, the assignment rebalances onto it with capacity maxLoad, and every
// user's authority list is refreshed in the directory and the live agents.
func (f *Fabric) AddServer(id graph.NodeID, region string, maxLoad int) error {
	if _, dup := f.servers[id]; dup {
		return fmt.Errorf("core: server %d already present", id)
	}
	a, ok := f.assigns[region]
	if !ok {
		return fmt.Errorf("core: unknown region %s", region)
	}
	if err := f.startServer(id, region); err != nil {
		return err
	}
	if _, err := a.AddServer(id, maxLoad); err != nil {
		return err
	}
	return f.refresh(region)
}

// RemoveServer deletes a server (§3.1.3c): the assignment rebalances its
// users away, authority lists refresh so nothing new routes to it, then the
// server drains — in-flight traffic settles, buffered mail evacuates to the
// recipients' remaining authority servers — and the node deregisters.
func (f *Fabric) RemoveServer(id graph.NodeID) error {
	srv, ok := f.servers[id]
	if !ok {
		return fmt.Errorf("core: no server %d in service", id)
	}
	region := srv.Region()
	if len(f.regionMap.Servers(region)) <= 1 {
		return errors.New("core: cannot remove a region's last server")
	}
	if _, err := f.assigns[region].RemoveServer(id); err != nil {
		return err
	}
	if err := f.refresh(region); err != nil {
		return err
	}
	f.regionMap.RemoveServer(region, id)
	// Drain: let in-flight transfers settle, evacuate buffered mail, and
	// repeat until a settle round leaves the server empty — a transfer
	// already headed here may deposit after the first evacuation.
	for i := 0; i < 16; i++ {
		f.Sched.Run()
		if _, n := srv.Evacuate(); n == 0 && srv.PendingTransfers() == 0 {
			break
		}
	}
	f.Net.Deregister(id)
	delete(f.servers, id)
	at, _ := slices.BinarySearch(f.active, id)
	f.active = slices.Delete(f.active, at, at+1)
	return nil
}

// Move is the §3.1.4 migration of the user behind agent a from oldHost to
// newHost, where they go by newName: quiesce in-flight deliveries and drain
// the mail buffered under the old name — in that order, or a transfer
// addressed to the old name lands after the drain in a mailbox nobody polls
// again — then add the user at the new location (rebalancing it in), delete
// them at the old one, and leave a redirect for senders still using the old
// name. It returns the user's agent at the new location and what the drain
// retrieved (also in a's inbox: the paper moves the user, not the mailbox).
func (f *Fabric) Move(a *client.Agent, oldHost, newHost graph.NodeID, newName names.Name) (*client.Agent, []mail.Stored, error) {
	old := a.User()
	if _, ok := f.hosts[newHost]; !ok {
		return nil, nil, fmt.Errorf("%w: host %d not wired", ErrUnknownNode, newHost)
	}
	f.Sched.Run()
	drained := a.GetMail()

	if _, err := f.assigns[newName.Region].AddUsers(newHost, 1); err != nil {
		return nil, drained, err
	}
	f.relist(newName.Region)
	moved, err := f.Register(newName, newHost, f.lists[newHost])
	if err != nil {
		return nil, drained, err
	}

	if _, err := f.assigns[old.Region].RemoveUsers(oldHost, 1); err != nil {
		return nil, drained, err
	}
	f.relist(old.Region)
	if err := f.dirs[old.Region].SetAuthority(old, nil); err != nil {
		return nil, drained, err
	}
	if err := f.dirs[old.Region].SetRedirect(old, newName); err != nil {
		return nil, drained, err
	}
	return moved, drained, nil
}

// Lookup returns the server process in service on a node, nil if none — the
// client.Directory every agent of the fabric shares.
func (f *Fabric) Lookup(id graph.NodeID) *server.Server { return f.servers[id] }

// Server returns the server process on a node.
func (f *Fabric) Server(id graph.NodeID) (*server.Server, bool) {
	srv, ok := f.servers[id]
	return srv, ok
}

// Servers returns the nodes of the servers in service, sorted: the fabric's
// own slice, read-only for the caller and stale after the next AddServer or
// RemoveServer.
func (f *Fabric) Servers() []graph.NodeID { return f.active }

// Hosts returns every host process, sorted by node ID. Hosts collect the
// submission acks, which is how callers learn which submissions the system
// has durably accepted.
func (f *Fabric) Hosts() []*client.Host {
	out := make([]*client.Host, 0, len(f.hosts))
	for _, h := range f.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Lists returns every host's current authority list, keyed by host node: the
// fabric's own table, which reconfigurations update in place. Read-only, the
// lists included — agents and directory entries share them.
func (f *Fabric) Lists() map[graph.NodeID][]graph.NodeID { return f.lists }

// Assignment returns a region's load-balanced assignment.
func (f *Fabric) Assignment(region string) (*assign.Assignment, bool) {
	a, ok := f.assigns[region]
	return a, ok
}

// Directory returns a region's directory.
func (f *Fabric) Directory(region string) (*server.Directory, bool) {
	d, ok := f.dirs[region]
	return d, ok
}

// Close syncs and closes every server's durable store (no-op for memory
// stores). The simulated network needs no teardown.
func (f *Fabric) Close() error {
	var first error
	for _, id := range f.active {
		if err := f.servers[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
