package locind

import (
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

// Server is one region server of the location-independent design. It
// resolves recipients by hash sub-group, deposits mail at the sub-group's
// first active authority server, and notifies recipients at their current
// location using the probe-primary-then-consult procedure of §3.2.2c.
type Server struct {
	id    graph.NodeID
	sys   *System
	where string // "s<node>", this server's label in trace stamps

	mailboxes map[names.Name]*mail.Mailbox
	// locations is this server's own knowledge of current user locations
	// ("the connecting server keeps the information about the current
	// location of this user").
	locations map[names.Name]graph.NodeID

	nextSeq   uint64
	nextToken uint64
	pending   map[uint64]*pendingDeposit
	notifying map[uint64]*pendingNotify
	// freeDeposits and freeNotifies hold released records for the next route
	// or notify; the server is single-threaded, so plain stacks do.
	freeDeposits []*pendingDeposit
	freeNotifies []*pendingNotify
	deposits     int64
}

// pendingDeposit is a deposit or forward awaiting its ack. It owns its retry
// timer: retry is the scheduler record, armed by dispatch with the deposit
// itself as the runner.
//
// Records are recycled as internal/server's pendingTransfer records are, and
// for the same reason it is safe: one is only ever reached through p.pending,
// by token — acks, retries and recovery carry tokens, never pointers — and the
// one pointer the scheduler holds (the armed retry) is cancelled before
// onDepositAck releases the record. A late or duplicate ack finds its token
// gone and stops; no timer armed for one tenant can fire for the next.
type pendingDeposit struct {
	retry      sim.Event
	p          *Server
	tok        uint64
	msg        mail.Message
	recipient  names.Name
	candidates []graph.NodeID // shared, never edited: a table row or a rotation
	next       int
	forward    bool // true: inter-region Forward, false: intra-region Deposit
}

// Run is the ack timeout: try the next candidate.
func (pd *pendingDeposit) Run() {
	p := pd.p
	if _, still := p.pending[pd.tok]; still && p.sys.net.IsUp(p.id) {
		p.sys.stats.Inc("deposit_retries")
		p.dispatch(pd.tok)
	}
}

// pendingNotify tracks the notification state machine: probe the primary
// host, then consult the other servers in order, then alert the located
// host. Records are recycled like pendingDeposit: reached only through
// p.notifying by the token probes and replies carry, released — cleared — by
// endNotify where the machine stops (notify_home, notify_offline, the roam
// alert), so a reply that arrives twice finds nothing.
type pendingNotify struct {
	user    names.Name
	msgID   mail.MessageID
	consult []graph.NodeID // servers still to ask; re-sliced, never written
	started sim.Time       // when the notification began, for lat_roam_resolve
}

// take pops a recycled record off a free list, or makes one when none has
// been released yet.
func take[T any](free *[]*T) *T {
	last := len(*free) - 1
	if last < 0 {
		return new(T)
	}
	r := (*free)[last]
	*free = (*free)[:last]
	return r
}

// newServer builds the process for one server node of sys.
func newServer(sys *System, id graph.NodeID) *Server {
	return &Server{
		id: id, sys: sys, where: fmt.Sprintf("s%d", id),
		mailboxes: make(map[names.Name]*mail.Mailbox),
		locations: make(map[names.Name]graph.NodeID),
		pending:   make(map[uint64]*pendingDeposit),
		notifying: make(map[uint64]*pendingNotify),
	}
}

// ID returns the server's node.
func (p *Server) ID() graph.NodeID { return p.id }

// MailboxLen reports buffered messages for a user on this server.
func (p *Server) MailboxLen(user names.Name) int {
	if mb, ok := p.mailboxes[user]; ok {
		return mb.Len()
	}
	return 0
}

// CheckMail drains the user's mailbox here (the retrieval the connecting
// server performs on the user's behalf).
func (p *Server) CheckMail(user names.Name) ([]mail.Stored, error) {
	if !p.sys.net.IsUp(p.id) {
		return nil, ErrNoServerUp
	}
	mb, ok := p.mailboxes[user]
	if !ok {
		return nil, nil
	}
	return mb.Drain(), nil
}

// KnownLocation returns this server's record of a user's current host.
func (p *Server) KnownLocation(user names.Name) (graph.NodeID, bool) {
	h, ok := p.locations[user]
	return h, ok
}

// Receive implements netsim.Handler.
func (p *Server) Receive(env netsim.Envelope) {
	switch m := env.Payload.(type) {
	case *netsim.Box[Submit]:
		p.submit(m.V)
	case *netsim.Box[Deposit]:
		p.onDeposit(m.V)
	case *netsim.Box[DepositAck]:
		p.onDepositAck(m.V.Token)
	case *netsim.Box[LoginMsg]:
		p.onLogin(m.V)
	case *netsim.Box[LogoutMsg]:
		delete(p.locations, m.V.User)
	case *netsim.Box[ProbeReply]:
		p.onProbeReply(m.V)
	case *netsim.Box[LocQuery]:
		p.onLocQuery(m.V)
	case *netsim.Box[LocReply]:
		p.onLocReply(m.V)
	case *netsim.Box[Forward]:
		p.onForward(m.V)
	case *netsim.Box[ForwardAck]:
		p.onDepositAck(m.V.Token)
	default:
		p.sys.stats.Inc("unknown_payload")
	}
}

// Accept is the in-process submission entry point used by workload
// harnesses: it commits the message exactly as a Submit payload would (same
// routing, same counters) and returns the assigned ID so the caller can
// ledger the submission at its commit point. A down server rejects without
// side effects.
func (p *Server) Accept(from names.Name, to []names.Name, subject, body string) (mail.MessageID, error) {
	if !p.sys.net.IsUp(p.id) {
		return mail.MessageID{}, ErrNoServerUp
	}
	id := p.submit(Submit{From: from, To: to, Subject: subject, Body: body})
	return id, nil
}

func (p *Server) submit(m Submit) mail.MessageID {
	p.nextSeq++
	msg := mail.Message{
		ID:          mail.MessageID{Node: p.id, Seq: p.nextSeq},
		From:        m.From,
		To:          append([]names.Name(nil), m.To...),
		Subject:     m.Subject,
		Body:        m.Body,
		SubmittedAt: p.sys.net.Scheduler().Now(),
	}
	p.sys.stats.Inc("submissions")
	p.sys.trace.StampKey(msg.ID.TraceKey(), obs.StageSubmit, p.where)
	for _, rcpt := range msg.To {
		if rcpt.Region != p.sys.region {
			p.forwardRemote(msg, rcpt)
			continue
		}
		p.route(msg, rcpt)
	}
	return msg.ID
}

// route deposits at the recipient's sub-group authority list.
func (p *Server) route(msg mail.Message, rcpt names.Name) {
	auth := p.sys.AuthorityFor(rcpt)
	for _, cand := range auth {
		if !p.sys.net.IsUp(cand) {
			continue
		}
		if cand == p.id {
			p.depositLocal(msg, rcpt)
			return
		}
		break
	}
	p.enqueue(msg, rcpt, auth, false)
}

// enqueue ledgers one copy against its candidate list — shared, never edited —
// in a recycled record under a fresh token, and sends the first attempt.
func (p *Server) enqueue(msg mail.Message, rcpt names.Name, candidates []graph.NodeID, forward bool) {
	p.nextToken++
	tok := p.nextToken
	pd := take(&p.freeDeposits)
	*pd = pendingDeposit{p: p, tok: tok, msg: msg, recipient: rcpt, candidates: candidates, forward: forward}
	p.pending[tok] = pd
	p.dispatch(tok)
}

func (p *Server) dispatch(tok uint64) {
	pd, ok := p.pending[tok]
	if !ok || !p.sys.net.IsUp(p.id) {
		return
	}
	n := len(pd.candidates)
	target := pd.candidates[pd.next%n]
	for i := 0; i < n; i++ {
		cand := pd.candidates[(pd.next+i)%n]
		if p.sys.net.IsUp(cand) {
			target = cand
			pd.next = (pd.next + i + 1) % n
			break
		}
	}
	var payload any
	if pd.forward {
		p.sys.stats.Inc("forwards_out")
		payload = p.sys.free.forward.Box(Forward{Msg: pd.msg, Recipient: pd.recipient, Origin: p.id, Token: tok})
	} else {
		p.sys.stats.Inc("deposit_transfers")
		payload = p.sys.free.deposit.Box(Deposit{Msg: pd.msg, Recipient: pd.recipient, Origin: p.id, Token: tok})
	}
	_ = p.sys.net.Send(p.id, target, payload)
	sched := p.sys.net.Scheduler()
	sched.Schedule(&pd.retry, sched.Now()+p.sys.ackTimeout, pd)
}

// forwardRemote relays a copy toward the recipient's region through the
// federation, or counts it unroutable for a standalone system.
func (p *Server) forwardRemote(msg mail.Message, rcpt names.Name) {
	var candidates []graph.NodeID
	if p.sys.fed != nil {
		candidates = p.sys.fed.serversOf(rcpt.Region)
	}
	if len(candidates) == 0 {
		p.sys.stats.Inc("nonlocal_recipients")
		return
	}
	p.enqueue(msg, rcpt, candidates, true)
}

// onForward accepts an inter-region relay: ack the origin, then resolve and
// deliver locally ("[the remote server] will assume the responsibility of
// resolving the name and delivering the messages", §3.2.2b).
func (p *Server) onForward(m Forward) {
	_ = p.sys.net.Send(p.id, m.Origin, p.sys.free.forwardAck.Box(ForwardAck{Token: m.Token}))
	p.sys.stats.Inc("forwards_in")
	if m.Recipient.Region != p.sys.region {
		p.forwardRemote(m.Msg, m.Recipient) // stale routing: pass it on
		return
	}
	p.route(m.Msg, m.Recipient)
}

func (p *Server) onDeposit(m Deposit) {
	_ = p.sys.net.Send(p.id, m.Origin, p.sys.free.depositAck.Box(DepositAck{Token: m.Token}))
	p.depositLocal(m.Msg, m.Recipient)
}

// onDepositAck settles a deposit or forward: the record leaves the ledger and
// is recycled, timer cancelled first and message dropped.
func (p *Server) onDepositAck(tok uint64) {
	if pd, ok := p.pending[tok]; ok {
		p.sys.net.Scheduler().Cancel(&pd.retry)
		delete(p.pending, tok)
		*pd = pendingDeposit{}
		p.freeDeposits = append(p.freeDeposits, pd)
	}
}

func (p *Server) mailbox(user names.Name) *mail.Mailbox {
	mb, ok := p.mailboxes[user]
	if !ok {
		mb = mail.NewMailbox(user)
		p.mailboxes[user] = mb
	}
	return mb
}

func (p *Server) depositLocal(msg mail.Message, rcpt names.Name) {
	// Stale-authority guard: a rehash or server removal may have raced this
	// deposit while it was in flight. A server no longer on the recipient's
	// authority list must bounce the message back into rotation — buffering
	// it here would strand it where no retrieval will look.
	if !p.sys.isAuthority(p.id, rcpt) {
		p.sys.stats.Inc("deposit_reroutes")
		p.route(msg, rcpt)
		return
	}
	if !p.mailbox(rcpt).Deposit(msg, p.sys.net.Scheduler().Now()) {
		p.sys.stats.Inc("duplicate_deposits")
		return
	}
	p.sys.stats.Inc("deposits")
	p.deposits++
	p.sys.trace.StampKey(msg.ID.TraceKey(), obs.StageDeposit, p.where)
	p.notify(rcpt, msg.ID)
}

// Deposits returns how many fresh messages this server has buffered over
// its lifetime — a per-server load signal for the workload harness.
func (p *Server) Deposits() int64 { return p.deposits }

// notify runs §3.2.2c: "from the user name, the primary location of the
// user can be obtained. The server can send an alert signal to the user if
// he logs on to his primary location. If the user is not at his primary
// location, the server has to consult with other local servers."
func (p *Server) notify(user names.Name, id mail.MessageID) {
	// Connecting-server fast path: this server saw the login itself.
	if host, ok := p.locations[user]; ok {
		p.sys.stats.Inc("notify_known")
		p.alert(host, user, id)
		return
	}
	primary, err := p.sys.PrimaryHost(user)
	if err != nil {
		p.sys.stats.Inc("notify_unknown_host")
		return
	}
	p.nextToken++
	tok := p.nextToken
	pn := take(&p.freeNotifies)
	*pn = pendingNotify{
		user: user, msgID: id,
		consult: p.sys.others[p.id],
		started: p.sys.net.Scheduler().Now(),
	}
	p.notifying[tok] = pn
	p.sys.stats.Inc("notify_probe_primary")
	_ = p.sys.net.Send(p.id, primary, p.sys.free.notifyProbe.Box(NotifyProbe{User: user, ID: id, Server: p.id, Token: tok}))
}

// alert sends the final notification to the host the user was located at.
func (p *Server) alert(host graph.NodeID, user names.Name, id mail.MessageID) {
	_ = p.sys.net.Send(p.id, host, p.sys.free.alert.Box(Alert{User: user, ID: id, Server: p.id}))
}

// endNotify stops a notification's state machine and recycles its record.
func (p *Server) endNotify(tok uint64, pn *pendingNotify) {
	delete(p.notifying, tok)
	*pn = pendingNotify{}
	p.freeNotifies = append(p.freeNotifies, pn)
}

func (p *Server) onProbeReply(m ProbeReply) {
	pn, ok := p.notifying[m.Token]
	if !ok {
		return
	}
	if m.Found {
		// User was at their primary location; the probe already alerted
		// them. Zero extra traffic — the home case of experiment E7.
		p.sys.stats.Inc("notify_home")
		p.endNotify(m.Token, pn)
		return
	}
	p.consultNext(m.Token, pn)
}

// consultNext asks the next live server for the user's location.
func (p *Server) consultNext(tok uint64, pn *pendingNotify) {
	for len(pn.consult) > 0 {
		next := pn.consult[0]
		pn.consult = pn.consult[1:]
		if !p.sys.net.IsUp(next) {
			continue
		}
		p.sys.stats.Inc("consultations")
		if p.sys.onOverhead != nil {
			p.sys.onOverhead(pn.user, "consult")
		}
		_ = p.sys.net.Send(p.id, next, p.sys.free.locQuery.Box(LocQuery{User: pn.user, From: p.id, Token: tok}))
		return
	}
	// Nobody knows: the user is offline; mail waits in the mailbox.
	p.sys.stats.Inc("notify_offline")
	p.endNotify(tok, pn)
}

func (p *Server) onLocQuery(m LocQuery) {
	host, known := p.locations[m.User]
	_ = p.sys.net.Send(p.id, m.From, p.sys.free.locReply.Box(LocReply{User: m.User, Host: host, Known: known, Token: m.Token}))
}

func (p *Server) onLocReply(m LocReply) {
	pn, ok := p.notifying[m.Token]
	if !ok {
		return
	}
	if !m.Known {
		p.consultNext(m.Token, pn)
		return
	}
	p.sys.stats.Inc("notify_roaming")
	if p.sys.onOverhead != nil {
		p.sys.onOverhead(pn.user, "roam_alert")
	}
	elapsed := p.sys.net.Scheduler().Now() - pn.started
	p.sys.stats.Histogram("lat_roam_resolve", nil).Observe(float64(elapsed))
	p.alert(m.Host, pn.user, pn.msgID)
	p.endNotify(m.Token, pn)
}

func (p *Server) onLogin(m LoginMsg) {
	p.locations[m.User] = m.Host
	p.sys.stats.Inc("logins")
	// "Notify him as soon as he is connected": buffered mail here triggers
	// an immediate alert.
	if mb, ok := p.mailboxes[m.User]; ok && mb.Len() > 0 {
		p.alert(m.Host, m.User, mb.Peek()[0].ID)
	}
}

// Recovered implements netsim.Recoverer: coming back up, the server
// re-dispatches every pending deposit. While it was down its retry timers
// refused to re-arm (dispatch is a no-op on a down origin) and any acks in
// flight to it were dropped, so without this kick a message accepted just
// before the crash would strand in the pending table forever.
func (p *Server) Recovered(at sim.Time) {
	toks := make([]uint64, 0, len(p.pending))
	for tok := range p.pending {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	for _, tok := range toks {
		p.sys.stats.Inc("recovery_redispatches")
		p.dispatch(tok)
	}
}

// Users returns the users with mailboxes on this server, sorted.
func (p *Server) Users() []names.Name {
	out := make([]names.Name, 0, len(p.mailboxes))
	for u := range p.mailboxes {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// PendingLen reports deposits awaiting acks on this server (ledger size).
func (p *Server) PendingLen() int { return len(p.pending) }
