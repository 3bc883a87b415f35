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
// Delivery notification follows §3.2.2c: a server holding new mail first
// tries the user's primary location; "if the user is not at his primary
// location, the server has to consult with other local servers to find out
// the current location of the user." Overhead is incurred only when the
// user roams — the property experiment E7 measures.
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
	"github.com/largemail/largemail/internal/sim"
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
// nothing of it past Receive.
type (
	// Submit asks a server to deliver a message (sent from the user's
	// current host).
	Submit struct {
		From    names.Name
		To      []names.Name
		Subject string
		Body    string
	}
	// Deposit hands a message to an authority server of the recipient's
	// sub-group; acked and retried like the syntax-directed design.
	Deposit struct {
		Msg       mail.Message
		Recipient names.Name
		Origin    graph.NodeID
		Token     uint64
	}
	// DepositAck confirms a Deposit.
	DepositAck struct{ Token uint64 }
	// LoginMsg announces a user's presence at a host to the connecting
	// server ("whenever a user logs on to a host, the host will inform the
	// nearest active server", §3.2.2c).
	LoginMsg struct {
		User names.Name
		Host graph.NodeID
	}
	// LogoutMsg withdraws the login.
	LogoutMsg struct{ User names.Name }
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
	// Alert is the final notification to the user's located host.
	Alert struct {
		User   names.Name
		ID     mail.MessageID
		Server graph.NodeID
	}
	// Forward relays a message into the recipient's region (§3.2.2b);
	// acked and retried like Deposit.
	Forward struct {
		Msg       mail.Message
		Recipient names.Name
		Origin    graph.NodeID
		Token     uint64
	}
	// ForwardAck confirms a Forward.
	ForwardAck struct{ Token uint64 }
)

// Federation links the location-independent systems of several regions
// sharing one network, providing the inter-region step of §3.2.2b: "if the
// name is not a local name, the server has to contact the corresponding
// server in the region where the name belongs. The request will be
// forwarded to that server which will assume the responsibility of
// resolving the name and delivering the messages."
type Federation struct {
	systems map[string]*System
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{systems: make(map[string]*System)}
}

// Add joins a region's system to the federation. Systems must share one
// netsim.Network.
func (f *Federation) Add(sys *System) error {
	if _, dup := f.systems[sys.region]; dup {
		return fmt.Errorf("locind: region %s already federated", sys.region)
	}
	f.systems[sys.region] = sys
	sys.fed = f
	return nil
}

// System returns a member region's system.
func (f *Federation) System(region string) (*System, bool) {
	s, ok := f.systems[region]
	return s, ok
}

// serversOf returns a region's servers in preference order, or nil for
// unknown regions.
func (f *Federation) serversOf(region string) []graph.NodeID {
	s, ok := f.systems[region]
	if !ok {
		return nil
	}
	return s.servers
}

// Config describes one region's location-independent system.
type Config struct {
	Region string
	Net    *netsim.Network
	// Servers are the region's mail servers, in preference order.
	Servers []graph.NodeID
	// Hosts maps host name tokens to their nodes (needed to find a user's
	// primary location from their name).
	Hosts map[string]graph.NodeID
	// Subgroups is the hash modulus k; zero means max(1, 2×#servers).
	Subgroups int
	// ListLen is the authority-list length per sub-group; zero means
	// min(2, #servers).
	ListLen int
	// AckTimeout for deposit retries; zero means 8 paper time units.
	AckTimeout sim.Time
	// Stats, when non-nil, is used instead of a private registry — a
	// federation's regions can then share one registry and their counters
	// aggregate.
	Stats *obs.Registry
	// Trace, when non-nil, stamps the message lifecycle (submit, deposit)
	// so a workload harness can run its trace-completeness audit.
	Trace *obs.Tracer
}

// System is one region's location-independent mail system.
type System struct {
	region     string
	net        *netsim.Network
	hosts      map[string]graph.NodeID
	subgroups  int
	listLen    int
	ackTimeout sim.Time

	// servers is the rotation; authority holds every sub-group's list, row g
	// at [g·listLen, (g+1)·listLen); others maps each server process to the
	// rotation without it. All three are replaced, never edited, whenever
	// the rotation or the modulus changes (retable), so a row handed out by
	// AuthorityFor — to a pending deposit, a consultation walk, a caller —
	// stays what it was when it was read, and nobody may write to one.
	servers   []graph.NodeID
	authority []graph.NodeID
	others    map[graph.NodeID][]graph.NodeID

	procs  map[graph.NodeID]*Server
	hostPs map[graph.NodeID]*Hostd
	free   payloadLists
	stats  *obs.Registry
	trace  *obs.Tracer // nil when lifecycle stamping is off
	fed    *Federation // nil outside a federation

	// onOverhead, when set via SetOverheadHook, observes every piece of
	// roaming-tracking work a delivery incurs: one "consult" event per
	// LocQuery issued and one "roam_alert" when a consultation located a
	// roamed user. The §3.2.2c auditor uses it to verify that overhead is
	// only ever incurred for users who actually left their primary host.
	onOverhead func(user names.Name, event string)
}

// payloadLists holds one free list per payload type for the whole region: its
// servers, hosts and agents all send from the one event loop, and a box finds
// its way back to the list it was taken from (netsim.FreeList).
type payloadLists struct {
	submit      netsim.FreeList[Submit]
	deposit     netsim.FreeList[Deposit]
	depositAck  netsim.FreeList[DepositAck]
	login       netsim.FreeList[LoginMsg]
	logout      netsim.FreeList[LogoutMsg]
	notifyProbe netsim.FreeList[NotifyProbe]
	probeReply  netsim.FreeList[ProbeReply]
	locQuery    netsim.FreeList[LocQuery]
	locReply    netsim.FreeList[LocReply]
	alert       netsim.FreeList[Alert]
	forward     netsim.FreeList[Forward]
	forwardAck  netsim.FreeList[ForwardAck]
}

// SetOverheadHook installs the roaming-overhead observer (see §3.2.2c:
// consultation traffic must only occur for users off their primary host).
// Pass nil to remove it. Must not be called while the scheduler is running.
func (s *System) SetOverheadHook(fn func(user names.Name, event string)) {
	s.onOverhead = fn
}

// NewSystem registers a Server process on every server node. Host processes
// are added with AddHost.
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
		cfg.ListLen = len(cfg.Servers)
		if cfg.ListLen > 2 {
			cfg.ListLen = 2
		}
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 8 * sim.Unit
	}
	reg := cfg.Stats
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &System{
		region:     cfg.Region,
		net:        cfg.Net,
		servers:    append([]graph.NodeID(nil), cfg.Servers...),
		hosts:      make(map[string]graph.NodeID, len(cfg.Hosts)),
		subgroups:  cfg.Subgroups,
		listLen:    cfg.ListLen,
		ackTimeout: cfg.AckTimeout,
		procs:      make(map[graph.NodeID]*Server),
		hostPs:     make(map[graph.NodeID]*Hostd),
		stats:      reg,
		trace:      cfg.Trace,
	}
	for tok, id := range cfg.Hosts {
		s.hosts[tok] = id
	}
	for _, id := range cfg.Servers {
		p := newServer(s, id)
		if err := cfg.Net.Register(id, p); err != nil {
			return nil, err
		}
		s.procs[id] = p
	}
	s.retable()
	return s, nil
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

// Stats returns region-wide counters: "deposits", "notify_home",
// "notify_roaming", "consultations", "rehash_transfers", ...
func (s *System) Stats() *obs.Registry { return s.stats }

// Region returns the system's region name.
func (s *System) Region() string { return s.region }

// Subgroups returns the current hash modulus.
func (s *System) Subgroups() int { return s.subgroups }

// Servers returns the current rotation, in authority order.
func (s *System) Servers() []graph.NodeID {
	return append([]graph.NodeID(nil), s.servers...)
}

// Server returns the server process on a node.
func (s *System) Server(id graph.NodeID) (*Server, bool) {
	p, ok := s.procs[id]
	return p, ok
}

// AuthorityFor returns the ordered authority-server list of the user's hash
// sub-group: a row of the current table, shared and read-only.
func (s *System) AuthorityFor(user names.Name) []graph.NodeID {
	lo := user.Subgroup(s.subgroups) * s.listLen
	return s.authority[lo : lo+s.listLen : lo+s.listLen]
}

// isAuthority reports whether id is on the user's authority list.
func (s *System) isAuthority(id graph.NodeID, user names.Name) bool {
	return slices.Contains(s.AuthorityFor(user), id)
}

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
// changing the hashing functions", §3.2.3c) — and migrates buffered
// mailboxes whose sub-group authority no longer includes their current
// server. No user names change. It returns how many mailboxes moved.
func (s *System) Rehash(k int) (moved int, err error) {
	if k <= 0 {
		return 0, fmt.Errorf("locind: invalid sub-group count %d", k)
	}
	s.subgroups = k
	s.retable()
	serverIDs := append([]graph.NodeID(nil), s.servers...)
	sort.Slice(serverIDs, func(i, j int) bool { return serverIDs[i] < serverIDs[j] })
	for _, sid := range serverIDs {
		moved += s.evacuate(s.procs[sid])
	}
	return moved, nil
}

// evacuate re-routes every buffered message on p whose sub-group authority
// no longer includes p, through the normal acked per-message deposit path,
// so reconfiguration cannot lose mail: a target that is down mid-rehash is
// covered by the same retry machinery as any other deposit. It returns the
// number of mailboxes moved.
func (s *System) evacuate(p *Server) (moved int) {
	users := make([]names.Name, 0, len(p.mailboxes))
	for u := range p.mailboxes {
		users = append(users, u)
	}
	slices.SortFunc(users, names.Compare)
	for _, u := range users {
		if s.isAuthority(p.id, u) {
			continue
		}
		msgs := p.mailboxes[u].Drain()
		if len(msgs) == 0 {
			continue
		}
		s.stats.Inc("rehash_transfers")
		moved++
		for _, st := range msgs {
			// The copy leaves this server still undelivered: drop it from the
			// suppression memory, or a later reconfiguration routing it back
			// here would swallow it as a duplicate re-deposit.
			p.mailboxes[u].Forget(st.ID)
			s.stats.Inc("rehash_messages_moved")
			p.route(st.Message, u)
		}
	}
	return moved
}

// AddServer appends a server to the region (registering its process) and
// rehashes so sub-groups spread over it.
func (s *System) AddServer(id graph.NodeID) error {
	if _, dup := s.procs[id]; dup {
		return fmt.Errorf("locind: server %d already present", id)
	}
	p := newServer(s, id)
	if err := s.net.Register(id, p); err != nil {
		return err
	}
	s.procs[id] = p
	s.servers = append(s.servers[:len(s.servers):len(s.servers)], id)
	_, err := s.Rehash(s.subgroups)
	return err
}

// RemoveServer takes a server out of the region's rotation: no sub-group's
// authority list includes it afterwards, and its buffered mail is re-routed
// through the normal acked deposit path. The process stays registered on
// the network, so in-flight deposits addressed to it are bounced back into
// rotation by the stale-authority guard rather than stranded. It returns
// how many mailboxes moved.
func (s *System) RemoveServer(id graph.NodeID) (moved int, err error) {
	p, ok := s.procs[id]
	if !ok {
		return 0, fmt.Errorf("locind: server %d not present", id)
	}
	idx := -1
	for i, sid := range s.servers {
		if sid == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("locind: server %d already removed", id)
	}
	if len(s.servers) == 1 {
		return 0, ErrNoServers
	}
	s.servers = append(s.servers[:idx:idx], s.servers[idx+1:]...)
	if s.listLen > len(s.servers) {
		s.listLen = len(s.servers)
	}
	s.retable()
	moved = s.evacuate(p)
	m, err := s.Rehash(s.subgroups)
	return moved + m, err
}
