// Package client implements the paper's user interface / user agent: the
// software that "interacts with the users and assists users in composing,
// sending, receiving, reading, and deleting mail" (§1).
//
// Its centerpiece is the paper's GetMail procedure (§3.1.2c): an efficient
// mail-retrieval algorithm that avoids polling every authority server by
// tracking LastCheckingTime[user] against each server's LastStartTime and
// remembering PreviouslyUnavailableServers. "This scheme will not check
// servers when it is sure that they do not store any messages for the user"
// — under normal (failure-free) conditions it issues approximately one poll
// per retrieval, yet "guarantees that no messages will be lost even when
// some servers fail" (§5).
package client

import (
	"errors"
	"fmt"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// Errors reported by Agent operations. ErrNoServerAvailable matches
// mailerr.ErrServerDown so callers can branch on the shared taxonomy without
// importing this package's sentinel.
var (
	ErrNoServerAvailable = fmt.Errorf("client: no authority server available: %w", mailerr.ErrServerDown)
	ErrNotAttached       = errors.New("client: agent not attached to a host")
)

// Host is the multiplexer process on a host node: it receives server traffic
// (submission acks, mail-arrival notifications) and routes it to the user
// agents attached to the host.
type Host struct {
	id     graph.NodeID
	net    *netsim.Network
	agents map[names.Name]*Agent
	acks   []server.SubmitAck
}

// NewHost creates the host process and registers it on its network node.
func NewHost(net *netsim.Network, id graph.NodeID) (*Host, error) {
	h := &Host{id: id, net: net, agents: make(map[names.Name]*Agent)}
	if err := net.Register(id, h); err != nil {
		return nil, err
	}
	return h, nil
}

// ID returns the host's node ID.
func (h *Host) ID() graph.NodeID { return h.id }

// Acks returns the submission acks received so far.
func (h *Host) Acks() []server.SubmitAck {
	return append([]server.SubmitAck(nil), h.acks...)
}

// Receive implements netsim.Handler.
func (h *Host) Receive(env netsim.Envelope) {
	switch p := env.Payload.(type) {
	case server.SubmitAck:
		h.acks = append(h.acks, p)
	case *netsim.Box[server.Notify]: // the network's box: keep the value, not p
		if a, ok := h.agents[p.V.User]; ok {
			a.notifications = append(a.notifications, p.V)
		}
	}
}

// Stats are the per-agent retrieval counters the experiments report.
type Stats struct {
	Polls        int     // CheckMail calls issued ("get mail from server")
	FailedProbes int     // liveness probes that found a server down
	Retrievals   int     // GetMail / PollAll invocations
	Received     int     // messages newly received
	Duplicates   int     // retrieved copies suppressed by the agent
	PollCost     float64 // accumulated round-trip cost of all polls
	// ListQueries counts name-server authority-list fetches (name-server
	// mode), ListUpdates the pushed refreshes of a locally kept list
	// (local mode) — the two sides of the §3.1.2a trade-off.
	ListQueries int
	ListUpdates int
	ListCost    float64 // round-trip cost of the name-server queries
}

// Directory resolves server node IDs to server processes for the
// synchronous retrieval path. *server.Server satisfies the contract via a
// lookup map; the indirection keeps the client testable.
type Directory func(graph.NodeID) *server.Server

// Agent is one user's mail agent. Of a large population nearly every agent
// is idle, so an agent allocates nothing of its own until something happens
// to it: InitAgent makes one in memory its owner already holds (the §3.1
// fabric carves them from chunks), the authority list is the caller's (or a
// directory's) own slice, the duplicate memory holds its first IDs inline,
// and PreviouslyUnavailableServers is made by the first failed probe.
type Agent struct {
	user    names.Name
	host    *Host
	net     *netsim.Network
	servers Directory
	// authority is shared and immutable: InitAgent, SetAuthority and the
	// name-server refresh install the slice they are given (a host's list, a
	// directory's stored list) and Authority hands it out, so neither the
	// agent, nor whoever supplied a list, nor whoever read it may write to it.
	// A change of placement is a new slice.
	authority   []graph.NodeID
	nameServers []graph.NodeID // non-empty = §3.1.2a name-server mode

	lastChecking  sim.Time
	prevUnavail   mail.Unavailable[graph.NodeID]
	seen          mail.IDSet
	inbox         mail.Inbox
	notifications []server.Notify

	stats Stats
}

// InitAgent makes *a the agent of user attached to host, with the given
// ordered authority-server list, which the agent keeps and the caller must
// not modify afterwards (see Agent.authority). It allocates nothing: the
// owner keeps agents in memory of its own. The host holds a from here on, for
// as long as the host lives. On an error a is left as it was.
func InitAgent(a *Agent, user names.Name, host *Host, servers Directory, authority []graph.NodeID) error {
	if host == nil {
		return ErrNotAttached
	}
	if len(authority) == 0 {
		return fmt.Errorf("client: %v has an empty authority list", user)
	}
	*a = Agent{
		user:      user,
		host:      host,
		net:       host.net,
		servers:   servers,
		authority: authority,
	}
	host.agents[user] = a
	return nil
}

// User returns the agent's user name.
func (a *Agent) User() names.Name { return a.user }

// Authority returns the agent's ordered authority-server list: the stored
// slice itself, read-only for the caller.
func (a *Agent) Authority() []graph.NodeID { return a.authority }

// SetAuthority replaces the locally kept authority list (pushed after a
// reconfiguration) with list, which the caller gives up. Each push is the
// maintenance overhead §3.1.2a warns about: "the lists still need to be
// updated when there are changes in system configurations."
func (a *Agent) SetAuthority(list []graph.NodeID) error {
	if len(list) == 0 {
		return fmt.Errorf("client: empty authority list for %v", a.user)
	}
	a.authority = list
	a.stats.ListUpdates++
	return nil
}

// UseNameServers switches the agent to §3.1.2a's alternative connection
// setup: instead of maintaining the authority list locally, the agent
// fetches it from a name server (any live mail server exposing the
// replicated directory) at the start of every retrieval or connection.
func (a *Agent) UseNameServers(servers []graph.NodeID) error {
	if len(servers) == 0 {
		return fmt.Errorf("client: empty name-server list for %v", a.user)
	}
	a.nameServers = append([]graph.NodeID(nil), servers...)
	return nil
}

// refreshAuthority fetches the current list from the first live name server
// when the agent runs in name-server mode; otherwise it keeps the local
// list. Fetch failures fall back to the last known list, so a name-server
// outage degrades to staleness rather than lockout.
func (a *Agent) refreshAuthority() {
	if len(a.nameServers) == 0 {
		return
	}
	for _, ns := range a.nameServers {
		if !a.net.IsUp(ns) {
			a.stats.FailedProbes++
			continue
		}
		srv := a.servers(ns)
		if srv == nil {
			continue
		}
		a.stats.ListQueries++
		if c, err := a.net.Cost(a.host.id, ns); err == nil {
			a.stats.ListCost += 2 * c
		}
		list, err := srv.LookupAuthority(a.user)
		if err != nil {
			continue
		}
		a.authority = list
		return
	}
}

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

// Inbox returns the messages retrieved so far (since the last TakeMail), in
// retrieval order.
func (a *Agent) Inbox() []mail.Stored { return a.inbox.Since(0) }

// Notifications returns the mail-arrival alerts received so far (since the
// last DropNotifications).
func (a *Agent) Notifications() []server.Notify {
	return append([]server.Notify(nil), a.notifications...)
}

// DropNotifications forgets the alerts the agent holds; their array is kept
// for the next ones (Notifications hands out copies).
func (a *Agent) DropNotifications() { clear(a.notifications); a.notifications = a.notifications[:0] }

// Connect performs the connection setup of §3.1.2a: "the user interface
// will contact the first server from that list, and ask for a mail service.
// If that server is not available, it will contact the next one and will
// keep attempting to contact a server until it succeeds."
func (a *Agent) Connect() (graph.NodeID, error) {
	a.refreshAuthority()
	for _, s := range a.authority {
		if a.net.IsUp(s) {
			return s, nil
		}
		a.stats.FailedProbes++
	}
	return 0, fmt.Errorf("%w: user %v", ErrNoServerAvailable, a.user)
}

// Send submits a message through the first available authority server and
// returns the server used. Delivery is asynchronous; the submission ack
// arrives at the host later.
func (a *Agent) Send(to []names.Name, subject, body string) (graph.NodeID, error) {
	srv, err := a.Connect()
	if err != nil {
		return 0, err
	}
	err = a.net.Send(a.host.id, srv, server.SubmitRequest{
		From: a.user, To: to, Subject: subject, Body: body,
	})
	if err != nil {
		return 0, err
	}
	return srv, nil
}

// Login announces the user at their host to the first available server, so
// arriving mail triggers alert signals.
func (a *Agent) Login() error {
	srv, err := a.Connect()
	if err != nil {
		return err
	}
	return a.net.Send(a.host.id, srv, server.Login{User: a.user, Host: a.host.id})
}

// Seen reports whether the agent has already delivered this message to the
// user — the query half of the dedup set NoteDelivered seeds. Migration
// drains consult it so straggler copies are discarded rather than credited.
func (a *Agent) Seen(id mail.MessageID) bool { return a.seen.Has(id) }

// NoteDelivered seeds the duplicate-suppression set with message IDs that
// reached the user out of band — e.g. a §3.1.4 migration drain collected
// server-side — and returns the IDs that were new to the agent. Already-seen
// IDs are straggler copies (a transfer retry re-routed onto a newer
// placement) and are counted as suppressed duplicates, exactly as if the
// agent's own walk had retrieved them.
func (a *Agent) NoteDelivered(ids []mail.MessageID) []mail.MessageID {
	fresh := make([]mail.MessageID, 0, len(ids))
	for _, id := range ids {
		if !a.seen.Add(id) {
			a.stats.Duplicates++
			continue
		}
		fresh = append(fresh, id)
	}
	return fresh
}

// Logout withdraws the login.
func (a *Agent) Logout() error {
	srv, err := a.Connect()
	if err != nil {
		return err
	}
	return a.net.Send(a.host.id, srv, server.Logout{User: a.user})
}

// poll retrieves mail from one server into the inbox, updating the counters.
func (a *Agent) poll(id graph.NodeID) {
	srv := a.servers(id)
	if srv == nil {
		return
	}
	a.stats.Polls++
	if c, err := a.net.Cost(a.host.id, id); err == nil {
		a.stats.PollCost += 2 * c // round trip
	}
	msgs, err := srv.CheckMail(a.user)
	if err != nil {
		return
	}
	fresh := a.inbox.Absorb(&a.seen, msgs)
	a.stats.Received += fresh
	a.stats.Duplicates += len(msgs) - fresh
}

// poller is the agent as the §3.1.2c walk sees it.
type poller Agent

// Poll implements mail.Poller: a server the network reports down is
// unavailable; one that is up is polled, and a poll cannot fail.
func (p *poller) Poll(s graph.NodeID) (mail.Visit, int64) {
	a := (*Agent)(p)
	if !a.net.IsUp(s) {
		return mail.Down, 0
	}
	a.poll(s)
	lastStart, _ := a.net.LastStart(s)
	return mail.Polled, int64(lastStart)
}

// GetMail runs the paper's retrieval algorithm (§3.1.2c, mail.Unavailable.Walk)
// and returns the newly retrieved messages.
func (a *Agent) GetMail() []mail.Stored { return a.inbox.Since(a.walk()) }

// TakeMail is GetMail for an owner that reads the batch once and keeps the
// agent alive for a long run: the walk's messages are handed over, not copied,
// and the agent forgets its inbox (mail.Inbox.Take). The duplicate-suppression
// memory stays, so a copy that failed over to a second server is still
// recognised.
func (a *Agent) TakeMail() []mail.Stored { return a.inbox.Take(a.walk()) }

// walk runs one retrieval and returns where in the inbox its messages start.
// Every server the walk's first pass finds down is a failed probe.
func (a *Agent) walk() int {
	a.refreshAuthority()
	a.stats.Retrievals++
	before := len(a.inbox)
	current := a.net.Scheduler().Now()
	a.stats.FailedProbes += a.prevUnavail.Walk((*poller)(a), a.authority, int64(a.lastChecking))
	a.lastChecking = current
	return before
}

// PollAll is the naive baseline GetMail is compared against: "the most
// straight-forward method is to poll all the authority servers for that
// user. However, this is very inefficient and for most times unnecessary."
func (a *Agent) PollAll() []mail.Stored {
	a.stats.Retrievals++
	before := len(a.inbox)
	for _, s := range a.authority {
		if a.net.IsUp(s) {
			a.poll(s)
		} else {
			a.stats.FailedProbes++
		}
	}
	return a.inbox.Since(before)
}

// PreviouslyUnavailable returns the servers currently on the agent's
// PreviouslyUnavailableServers list, in authority order.
func (a *Agent) PreviouslyUnavailable() []graph.NodeID {
	return a.prevUnavail.Listed(a.authority)
}

// LastCheckingTime returns the agent's LastCheckingTime[user] variable.
func (a *Agent) LastCheckingTime() sim.Time { return a.lastChecking }
