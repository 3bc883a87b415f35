// Package locind implements the paper's second design: an electronic mail
// system with limited location-independent access (§3.2).
//
// Names keep the region.host.user syntax, but "the 'host' here indicates the
// primary location of the user. It does not determine the current access
// point": users roam to any host inside their region. Regions are divided
// into hash sub-groups ("a hash function is applied to the name to find out
// in which sub-group the name belongs", §3.2.2b) and each sub-group is
// served by an ordered list of the region's servers, so server assignment is
// independent of the name syntax and "reallocation of servers and
// reallocation of load can be done by changing the hashing functions"
// (§3.2.3c) — no renames.
//
// Everything else is §3.1's: each server node runs an internal/server
// Server — submission, the first-active deposit, acked and retried
// transfers, the inter-region relay, crash recovery — with the sub-group
// table as its resolver. What this package adds is that table and its
// rehash, and delivery notification per §3.2.2c: a server holding new mail
// for a user not logged on with it first tries the user's primary location;
// "if the user is not at his primary location, the server has to consult
// with other local servers to find out the current location of the user."
// Overhead is incurred only when the user roams — the property experiment E7
// measures.
package locind

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
)

// Errors reported by the package.
var (
	ErrWrongRegion = errors.New("locind: name is outside this region")
	ErrNoServers   = errors.New("locind: no servers configured")
	ErrUnknownHost = errors.New("locind: unknown host")
	ErrNoServerUp  = errors.New("locind: no server reachable")
)

// Protocol payloads. Every one travels in a netsim.Box from the sending
// system's free lists (System.free), so a handler reads it in place and keeps
// nothing of it past Receive. Logins, logouts and alerts are §3.1's
// server.Login, server.Logout and server.Notify.
type (
	// Submit asks a server to deliver a message (sent from the user's
	// current host). Unlike server.SubmitRequest it is not acknowledged:
	// the agent learns nothing back, so a send costs E7 one message.
	Submit server.SubmitRequest
	// NotifyProbe asks a host whether the user is connected there; if so
	// the alert is delivered with it.
	NotifyProbe struct {
		User   names.Name
		ID     mail.MessageID
		Server graph.NodeID
		Token  uint64
	}
	// ProbeReply answers a NotifyProbe.
	ProbeReply struct {
		Token uint64
		Found bool
	}
	// LocQuery asks another server for a user's current location (the
	// consultation step of §3.2.2c).
	LocQuery struct {
		User  names.Name
		From  graph.NodeID
		Token uint64
	}
	// LocReply answers a LocQuery; Known is false when the asked server
	// has no record.
	LocReply struct {
		User  names.Name
		Host  graph.NodeID
		Known bool
		Token uint64
	}
)

// Federation links the location-independent systems of several regions
// sharing one network, providing the inter-region step of §3.2.2b: "if the
// name is not a local name, the server has to contact the corresponding
// server in the region where the name belongs. The request will be
// forwarded to that server which will assume the responsibility of
// resolving the name and delivering the messages." That step is the
// servers' relay (server.Server.Route); the federation gives every member's
// servers one region map to relay by.
type Federation struct {
	systems map[string]*System
	regions *server.RegionMap
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{systems: make(map[string]*System), regions: server.NewRegionMap()}
}

// Add joins a region's system to the federation. Systems must share one
// netsim.Network.
func (f *Federation) Add(sys *System) error {
	if _, dup := f.systems[sys.region]; dup {
		return fmt.Errorf("locind: region %s already federated", sys.region)
	}
	for _, id := range sys.servers {
		f.regions.AddServer(sys.region, id)
	}
	// The system's servers hold sys.regions; a RegionMap copy shares its
	// table, so from here on they relay by — and change — the federation's.
	*sys.regions = *f.regions
	f.systems[sys.region] = sys
	return nil
}

// Config describes one region's location-independent system.
type Config struct {
	Region string
	Net    *netsim.Network
	// Servers are the region's mail servers, in preference order.
	Servers []graph.NodeID
	// Subgroups is the hash modulus k; zero means max(1, 2×#servers).
	Subgroups int
	// ListLen is the authority-list length per sub-group; zero means
	// min(2, #servers).
	ListLen int
	// Stats, when non-nil, is used instead of a private registry for the
	// counters this package adds (notification, consultation, rehash) — a
	// federation's regions can then share one registry and their counters
	// aggregate. The servers keep their own (System.Server(id).Stats()).
	Stats *obs.Registry
	// Trace, when non-nil, stamps the message lifecycle on every server so
	// a workload harness can run its trace-completeness audit.
	Trace *obs.Tracer
}

// System is one region's location-independent mail system.
type System struct {
	region    string
	net       *netsim.Network
	hosts     map[string]graph.NodeID
	subgroups int
	listLen   int

	// servers is the rotation; authority holds every sub-group's list, row g
	// at [g·listLen, (g+1)·listLen); others maps each server process to the
	// rotation without it. All three are replaced, never edited, whenever
	// the rotation or the modulus changes (retable), so a row handed out by
	// Resolve — to a pending transfer, a consultation walk, a caller — stays
	// what it was when it was read, and nobody may write to one.
	servers   []graph.NodeID
	authority []graph.NodeID
	others    map[graph.NodeID][]graph.NodeID

	procs   map[graph.NodeID]*locator // each server node's server, with its locator
	regions *server.RegionMap         // the servers' relay map; the federation's once joined
	hostPs  map[graph.NodeID]*Hostd
	free    payloadLists
	stats   *obs.Registry
	trace   *obs.Tracer // nil when lifecycle stamping is off

	// onOverhead, when set via SetOverheadHook, observes every piece of
	// roaming-tracking work a delivery incurs: one "consult" event per
	// LocQuery issued and one "roam_alert" when a consultation located a
	// roamed user. The §3.2.2c auditor uses it to verify that overhead is
	// only ever incurred for users who actually left their primary host.
	onOverhead func(user names.Name, event string)
}

// payloadLists holds one free list per payload type for the whole region: its
// servers' locators, hosts and agents all send from the one event loop, and a
// box finds its way back to the list it was taken from (netsim.FreeList).
type payloadLists struct {
	submit      netsim.FreeList[Submit]
	login       netsim.FreeList[server.Login]
	logout      netsim.FreeList[server.Logout]
	notify      netsim.FreeList[server.Notify]
	notifyProbe netsim.FreeList[NotifyProbe]
	probeReply  netsim.FreeList[ProbeReply]
	locQuery    netsim.FreeList[LocQuery]
	locReply    netsim.FreeList[LocReply]
}

// SetOverheadHook installs the roaming-overhead observer (see §3.2.2c:
// consultation traffic must only occur for users off their primary host).
// Pass nil to remove it. Must not be called while the scheduler is running.
func (s *System) SetOverheadHook(fn func(user names.Name, event string)) {
	s.onOverhead = fn
}

// NewSystem starts a server on every server node. Host processes are added
// with AddHost.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Net == nil {
		return nil, errors.New("locind: nil network")
	}
	if len(cfg.Servers) == 0 {
		return nil, ErrNoServers
	}
	if cfg.Subgroups <= 0 {
		cfg.Subgroups = 2 * len(cfg.Servers)
	}
	if cfg.ListLen <= 0 || cfg.ListLen > len(cfg.Servers) {
		cfg.ListLen = min(2, len(cfg.Servers))
	}
	reg := cfg.Stats
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &System{
		region:    cfg.Region,
		net:       cfg.Net,
		servers:   append([]graph.NodeID(nil), cfg.Servers...),
		hosts:     make(map[string]graph.NodeID),
		subgroups: cfg.Subgroups,
		listLen:   cfg.ListLen,
		procs:     make(map[graph.NodeID]*locator),
		regions:   server.NewRegionMap(),
		hostPs:    make(map[graph.NodeID]*Hostd),
		stats:     reg,
		trace:     cfg.Trace,
	}
	for _, id := range cfg.Servers {
		if err := s.startServer(id); err != nil {
			return nil, err
		}
	}
	s.retable()
	return s, nil
}

// startServer starts node id's server, resolving by this system's sub-groups
// and locating recipients per §3.2.2c.
func (s *System) startServer(id graph.NodeID) error {
	l := &locator{sys: s, notifying: make(map[uint64]*pendingNotify)}
	srv, err := server.New(server.Config{
		ID: id, Region: s.region, Net: s.net, Dir: s, Regions: s.regions,
		Locate: l, Trace: s.trace,
	})
	if err != nil {
		return err
	}
	l.srv = srv
	s.procs[id] = l
	return nil
}

// retable rebuilds the authority table and the per-server consultation
// lists from the current rotation, modulus and list length: sub-group g is
// served by servers[g mod n], servers[(g+1) mod n], ... for ListLen entries,
// which spreads sub-groups evenly.
func (s *System) retable() {
	n := len(s.servers)
	s.authority = make([]graph.NodeID, 0, s.subgroups*s.listLen)
	for g := 0; g < s.subgroups; g++ {
		for i := 0; i < s.listLen; i++ {
			s.authority = append(s.authority, s.servers[(g+i)%n])
		}
	}
	s.others = make(map[graph.NodeID][]graph.NodeID, len(s.procs))
	for id := range s.procs {
		row := make([]graph.NodeID, 0, n)
		for _, sid := range s.servers {
			if sid != id {
				row = append(row, sid)
			}
		}
		s.others[id] = row
	}
}

// Stats returns the counters this package adds: "notify_home",
// "notify_roaming", "notify_offline", "notify_probe_primary",
// "consultations", "rehash_transfers", "rehash_messages_moved" and the
// "lat_roam_resolve" histogram. Delivery's counters are each server's.
func (s *System) Stats() *obs.Registry { return s.stats }

// Region returns the system's region name.
func (s *System) Region() string { return s.region }

// Server returns the server process on a node.
func (s *System) Server(id graph.NodeID) (*server.Server, bool) {
	l, ok := s.procs[id]
	if !ok {
		return nil, false
	}
	return l.srv, true
}

// Resolve returns the ordered authority-server list of the user's hash
// sub-group: a row of the current table, shared and read-only. It is the
// servers' name resolution (server.Resolver).
func (s *System) Resolve(user names.Name) []graph.NodeID {
	lo := user.Subgroup(s.subgroups) * s.listLen
	return s.authority[lo : lo+s.listLen : lo+s.listLen]
}

// Group implements server.Resolver: §3.2 has no distribution lists.
func (s *System) Group(names.Name) ([]names.Name, bool) { return nil, false }

// Redirect implements server.Resolver: a user who moves keeps their name.
func (s *System) Redirect(names.Name) (names.Name, bool) { return names.Name{}, false }

// PrimaryHost returns the node of the user's primary location (the host
// token of their name).
func (s *System) PrimaryHost(user names.Name) (graph.NodeID, error) {
	id, ok := s.hosts[user.Host]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownHost, user.Host)
	}
	return id, nil
}

// NearestServer returns the closest up server to a host by path cost — the
// connection-setup rule of §3.2.2a ("a user always contacts the nearest
// active server").
func (s *System) NearestServer(from graph.NodeID) (graph.NodeID, error) {
	best := graph.NodeID(0)
	bestCost := -1.0
	for _, id := range s.servers {
		if !s.net.IsUp(id) {
			continue
		}
		c, err := s.net.Cost(from, id)
		if err != nil {
			continue
		}
		if bestCost < 0 || c < bestCost {
			best, bestCost = id, c
		}
	}
	if bestCost < 0 {
		return 0, ErrNoServerUp
	}
	return best, nil
}

// Rehash changes the hash modulus — the paper's reconfiguration lever
// ("reallocation of servers and reallocation of load can be done by
// changing the hashing functions", §3.2.3c) — and has every server evacuate
// the mailboxes of users it no longer serves through the normal acked
// deposit path, so a target that is down mid-rehash is covered by the same
// retries as any other deposit. No user names change. It returns how many
// mailboxes moved.
func (s *System) Rehash(k int) (moved int, err error) {
	if k <= 0 {
		return 0, fmt.Errorf("locind: invalid sub-group count %d", k)
	}
	s.subgroups = k
	s.retable()
	ids := slices.Clone(s.servers)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		moved += s.evacuate(id)
	}
	return moved, nil
}

// evacuate runs one server's evacuation and counts it.
func (s *System) evacuate(id graph.NodeID) int {
	users, msgs := s.procs[id].srv.Evacuate()
	s.stats.Add("rehash_transfers", int64(users))
	s.stats.Add("rehash_messages_moved", int64(msgs))
	return users
}

// AddServer starts a server on a node of the region and rehashes so
// sub-groups spread over it.
func (s *System) AddServer(id graph.NodeID) error {
	if _, dup := s.procs[id]; dup {
		return fmt.Errorf("locind: server %d already present", id)
	}
	if err := s.startServer(id); err != nil {
		return err
	}
	s.servers = append(slices.Clip(s.servers), id)
	_, err := s.Rehash(s.subgroups)
	return err
}

// RemoveServer takes a server out of the region's rotation: no sub-group's
// authority list includes it afterwards, and its buffered mail is re-routed
// through the normal acked deposit path. The process stays registered on
// the network, so deposits in flight to it are bounced back into rotation
// (it is on nobody's list) rather than stranded. It returns how many
// mailboxes moved.
func (s *System) RemoveServer(id graph.NodeID) (moved int, err error) {
	if _, ok := s.procs[id]; !ok {
		return 0, fmt.Errorf("locind: server %d not present", id)
	}
	idx := slices.Index(s.servers, id)
	if idx < 0 {
		return 0, fmt.Errorf("locind: server %d already removed", id)
	}
	if len(s.servers) == 1 {
		return 0, ErrNoServers
	}
	s.servers = slices.Delete(slices.Clone(s.servers), idx, idx+1)
	s.regions.RemoveServer(s.region, id)
	s.listLen = min(s.listLen, len(s.servers))
	s.retable()
	moved = s.evacuate(id)
	m, err := s.Rehash(s.subgroups)
	return moved + m, err
}
