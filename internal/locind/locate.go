package locind

import (
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// locator is one server's half of §3.2.2c (server.Locator): "from the user
// name, the primary location of the user can be obtained. The server can
// send an alert signal to the user if he logs on to his primary location. If
// the user is not at his primary location, the server has to consult with
// other local servers." Its server runs it for every fresh deposit whose
// recipient did not log on with it (one who did gets §3.1's notify), and
// hands it the procedure's payloads: the probe replies and consultations,
// answered from the server's online table, and the agents' submissions.
type locator struct {
	srv       *server.Server
	sys       *System
	nextToken uint64
	notifying map[uint64]*pendingNotify
	// free holds released records for the next notification; the server is
	// single-threaded, so a plain stack does.
	free []*pendingNotify
}

// pendingNotify tracks the notification state machine: probe the primary
// host, then consult the other servers in order, then alert the located
// host. Records are recycled: reached only through l.notifying by the token
// probes and replies carry, released — cleared — by end where the machine
// stops (notify_home, notify_offline, the roam alert), so a reply that
// arrives twice finds nothing.
type pendingNotify struct {
	user    names.Name
	msgID   mail.MessageID
	consult []graph.NodeID // servers still to ask; re-sliced, never written
	started sim.Time       // when the notification began, for lat_roam_resolve
}

// Locate probes the user's primary host; the reply decides the rest.
func (l *locator) Locate(user names.Name, id mail.MessageID) {
	primary, err := l.sys.PrimaryHost(user)
	if err != nil {
		l.sys.stats.Inc("notify_unknown_host")
		return
	}
	var pn *pendingNotify
	if n := len(l.free); n > 0 {
		pn, l.free = l.free[n-1], l.free[:n-1]
	} else {
		pn = new(pendingNotify)
	}
	*pn = pendingNotify{
		user: user, msgID: id,
		consult: l.sys.others[l.srv.ID()],
		started: l.sys.net.Scheduler().Now(),
	}
	l.nextToken++
	l.notifying[l.nextToken] = pn
	l.sys.stats.Inc("notify_probe_primary")
	_ = l.sys.net.Send(l.srv.ID(), primary, l.sys.free.notifyProbe.Box(NotifyProbe{User: user, ID: id, Server: l.srv.ID(), Token: l.nextToken}))
}

// Receive implements server.Locator.
func (l *locator) Receive(env netsim.Envelope) bool {
	switch m := env.Payload.(type) {
	case *netsim.Box[Submit]:
		_, _ = l.srv.Submit(server.SubmitRequest(m.V)) // it arrived, so the server is up
	case *netsim.Box[ProbeReply]:
		l.onProbeReply(m.V)
	case *netsim.Box[LocQuery]:
		host, known := l.srv.Online(m.V.User)
		_ = l.sys.net.Send(l.srv.ID(), m.V.From, l.sys.free.locReply.Box(LocReply{User: m.V.User, Host: host, Known: known, Token: m.V.Token}))
	case *netsim.Box[LocReply]:
		l.onLocReply(m.V)
	default:
		return false
	}
	return true
}

// end stops a notification's state machine and recycles its record.
func (l *locator) end(tok uint64, pn *pendingNotify) {
	delete(l.notifying, tok)
	*pn = pendingNotify{}
	l.free = append(l.free, pn)
}

func (l *locator) onProbeReply(m ProbeReply) {
	pn, ok := l.notifying[m.Token]
	if !ok {
		return
	}
	if m.Found {
		// User was at their primary location; the probe already alerted
		// them. Zero extra traffic — the home case of experiment E7.
		l.sys.stats.Inc("notify_home")
		l.end(m.Token, pn)
		return
	}
	l.consultNext(m.Token, pn)
}

// consultNext asks the next live server for the user's location.
func (l *locator) consultNext(tok uint64, pn *pendingNotify) {
	for len(pn.consult) > 0 {
		next := pn.consult[0]
		pn.consult = pn.consult[1:]
		if !l.sys.net.IsUp(next) {
			continue
		}
		l.sys.stats.Inc("consultations")
		if l.sys.onOverhead != nil {
			l.sys.onOverhead(pn.user, "consult")
		}
		_ = l.sys.net.Send(l.srv.ID(), next, l.sys.free.locQuery.Box(LocQuery{User: pn.user, From: l.srv.ID(), Token: tok}))
		return
	}
	// Nobody knows: the user is offline; mail waits in the mailbox.
	l.sys.stats.Inc("notify_offline")
	l.end(tok, pn)
}

func (l *locator) onLocReply(m LocReply) {
	pn, ok := l.notifying[m.Token]
	if !ok {
		return
	}
	if !m.Known {
		l.consultNext(m.Token, pn)
		return
	}
	l.sys.stats.Inc("notify_roaming")
	if l.sys.onOverhead != nil {
		l.sys.onOverhead(pn.user, "roam_alert")
	}
	elapsed := l.sys.net.Scheduler().Now() - pn.started
	l.sys.stats.Histogram("lat_roam_resolve", nil).Observe(float64(elapsed))
	_ = l.sys.net.Send(l.srv.ID(), m.Host, l.sys.free.notify.Box(server.Notify{User: pn.user, ID: pn.msgID, Server: l.srv.ID()}))
	l.end(m.Token, pn)
}
