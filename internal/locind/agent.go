package locind

import (
	"fmt"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
)

// Hostd is the host-side process of the location-independent design: it
// answers location probes from servers and routes alerts to the agents
// currently connected at this host.
type Hostd struct {
	id     graph.NodeID
	sys    *System
	agents map[names.Name]*Agent
}

// AddHost registers the host process on a node and records the host-token
// mapping.
func (s *System) AddHost(token string, id graph.NodeID) (*Hostd, error) {
	if _, dup := s.hostPs[id]; dup {
		return nil, fmt.Errorf("locind: host node %d already registered", id)
	}
	h := &Hostd{id: id, sys: s, agents: make(map[names.Name]*Agent)}
	if err := s.net.Register(id, h); err != nil {
		return nil, err
	}
	s.hostPs[id] = h
	s.hosts[token] = id
	return h, nil
}

// Receive implements netsim.Handler.
func (h *Hostd) Receive(env netsim.Envelope) {
	switch b := env.Payload.(type) {
	case *netsim.Box[NotifyProbe]:
		m := b.V
		a, here := h.agents[m.User]
		found := here && a.loggedIn
		if found {
			a.notifications = append(a.notifications, server.Notify{User: m.User, ID: m.ID, Server: m.Server})
		}
		_ = h.sys.net.Send(h.id, m.Server, h.sys.free.probeReply.Box(ProbeReply{Token: m.Token, Found: found}))
	case *netsim.Box[server.Notify]:
		if a, here := h.agents[b.V.User]; here {
			a.notifications = append(a.notifications, b.V)
		}
	}
}

// Agent is a roaming user of the location-independent system. Unlike the
// syntax-directed design, the agent's current host is state, not identity:
// "users can move freely within a region without changing names" (§3.2.4).
type Agent struct {
	user    names.Name
	sys     *System
	current *Hostd
	primary graph.NodeID

	loggedIn      bool
	seen          mail.IDSet
	inbox         mail.Inbox
	notifications []server.Notify
	polls         int
	retrievals    int
	dupes         int
	pollCost      float64
}

// NewAgent creates an agent at its primary host (per the user's name).
func (s *System) NewAgent(user names.Name) (*Agent, error) {
	if user.Region != s.region {
		return nil, fmt.Errorf("%w: %v", ErrWrongRegion, user)
	}
	primary, err := s.PrimaryHost(user)
	if err != nil {
		return nil, err
	}
	h, ok := s.hostPs[primary]
	if !ok {
		return nil, fmt.Errorf("%w: node %d has no host process", ErrUnknownHost, primary)
	}
	a := &Agent{user: user, sys: s, current: h, primary: primary}
	h.agents[user] = a
	return a, nil
}

// User returns the agent's name.
func (a *Agent) User() names.Name { return a.user }

// CurrentHost returns the node the agent is currently at.
func (a *Agent) CurrentHost() graph.NodeID { return a.current.id }

// AtPrimary reports whether the agent is at its primary location.
func (a *Agent) AtPrimary() bool { return a.current.id == a.primary }

// Notifications returns alerts received so far (since the last
// DropNotifications).
func (a *Agent) Notifications() []server.Notify {
	return append([]server.Notify(nil), a.notifications...)
}

// DropNotifications forgets the alerts the agent holds; their array is kept
// for the next ones (Notifications hands out copies).
func (a *Agent) DropNotifications() { clear(a.notifications); a.notifications = a.notifications[:0] }

// Inbox returns retrieved messages (since the last TakeMail).
func (a *Agent) Inbox() []mail.Stored { return a.inbox.Since(0) }

// Polls reports how many server mailbox checks the agent has issued.
func (a *Agent) Polls() int { return a.polls }

// Duplicates reports how many already-seen copies the agent's polls have
// suppressed (retried deposits that landed twice across a fault window).
func (a *Agent) Duplicates() int { return a.dupes }

// MoveTo roams the agent to another host in the region — no rename, no
// server reassignment (§3.2.4: "the server assignment of the migrated user
// need not be changed"). The agent is logged out by the move; call Login at
// the new location.
func (a *Agent) MoveTo(host graph.NodeID) error {
	h, ok := a.sys.hostPs[host]
	if !ok {
		return fmt.Errorf("%w: node %d", ErrUnknownHost, host)
	}
	if a.loggedIn {
		if err := a.Logout(); err != nil {
			return err
		}
	}
	delete(a.current.agents, a.user)
	a.current = h
	h.agents[a.user] = a
	return nil
}

// Login announces presence to the nearest active server.
func (a *Agent) Login() error {
	srv, err := a.sys.NearestServer(a.current.id)
	if err != nil {
		return err
	}
	a.loggedIn = true
	return a.sys.net.Send(a.current.id, srv, a.sys.free.login.Box(server.Login{User: a.user, Host: a.current.id}))
}

// Logout withdraws presence.
func (a *Agent) Logout() error {
	srv, err := a.sys.NearestServer(a.current.id)
	if err != nil {
		return err
	}
	a.loggedIn = false
	return a.sys.net.Send(a.current.id, srv, a.sys.free.logout.Box(server.Logout{User: a.user}))
}

// Send submits a message via the nearest active server — from wherever the
// agent currently is ("users ... can send or receive messages from any host
// inside a region without having to change names", §3.2).
func (a *Agent) Send(to []names.Name, subject, body string) error {
	srv, err := a.sys.NearestServer(a.current.id)
	if err != nil {
		return err
	}
	return a.sys.net.Send(a.current.id, srv, a.sys.free.submit.Box(Submit{From: a.user, To: to, Subject: subject, Body: body}))
}

// GetMail collects buffered mail from the live authority servers of the
// agent's sub-group and returns the newly retrieved messages.
func (a *Agent) GetMail() []mail.Stored { return a.inbox.Since(a.walk(a.current.id, 1)) }

// TakeMail is GetMail for an owner that reads the batch once and keeps the
// agent alive for a long run (client.Agent.TakeMail's contract): the walk's
// messages are handed over, not copied, and the agent forgets its inbox. The
// duplicate-suppression memory stays, so a retried deposit that landed on a
// second server is still recognised.
func (a *Agent) TakeMail() []mail.Stored { return a.inbox.Take(a.walk(a.current.id, 1)) }

// RemoteAccessFactor models §3.2.4's observation about cross-region remote
// access: "remote access is usually slow and imposes large overhead on the
// network (i.e., very few characters are packed in every remote-access
// packet)". Each remote poll is charged this multiple of the normal
// round-trip cost.
const RemoteAccessFactor = 4

// RemoteGetMail retrieves the agent's mail while accessing the region from
// a distant node — the §3.2.4 alternative to renaming after an inter-region
// move ("a user can remotely access his old region and access his mail").
// It returns the newly retrieved messages and the network cost this access
// incurred.
func (a *Agent) RemoteGetMail(from graph.NodeID) ([]mail.Stored, float64) {
	costBefore := a.pollCost
	msgs := a.inbox.Since(a.walk(from, RemoteAccessFactor))
	return msgs, a.pollCost - costBefore
}

// walk runs one retrieval from the given access point and returns where in
// the inbox its messages start. This design keeps no LastCheckingTime: every
// live authority server of the user's sub-group is polled on every call.
func (a *Agent) walk(from graph.NodeID, costFactor float64) int {
	a.retrievals++
	before := len(a.inbox)
	for _, sid := range a.sys.Resolve(a.user) {
		if !a.sys.net.IsUp(sid) {
			continue
		}
		srv, ok := a.sys.Server(sid)
		if !ok {
			continue
		}
		a.polls++
		if c, err := a.sys.net.Cost(from, sid); err == nil {
			a.pollCost += 2 * c * costFactor
		}
		msgs, err := srv.CheckMail(a.user)
		if err != nil {
			continue
		}
		a.dupes += len(msgs) - a.inbox.Absorb(&a.seen, msgs)
	}
	return before
}
