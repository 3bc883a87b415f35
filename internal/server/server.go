// Package server implements the paper's mail (authority) server: the process
// "responsible for obtaining addresses of recipients, sending, buffering,
// relaying and delivering messages to the mail recipients" (§1).
//
// A Server sits on one node of a simulated network and implements the
// message-delivery pipeline of §3.1.2: it accepts submissions from user
// interfaces, resolves recipient names (local region via its Resolver — the
// replicated Directory, or §3.2's hash sub-groups — other regions by relaying
// to a server there), deposits messages at the first active authority server
// of each recipient, and notifies logged-on recipients (§3.2 adds a Locator
// for the others). Server-to-server transfers are acknowledged and retried
// against the next candidate on timeout, which is what makes the design lose
// no mail while any authority server is reachable.
//
// Mailboxes and queued transfers survive crashes (stable storage); what a
// crashed server cannot do is receive — traffic sent to it while down is
// dropped by the network and covered by the sender's retry.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// MaxGroupExpansions bounds nested distribution-list expansion per message
// copy; deeper nesting is treated as a definition cycle and dropped.
const MaxGroupExpansions = 8

// Errors reported by Server operations. Both wrap the shared taxonomy in
// internal/mailerr, so errors.Is matches either the package sentinel or the
// cross-layer category (mailerr.ErrServerDown, mailerr.ErrUnknownUser).
var (
	ErrDown        = fmt.Errorf("server: server is down: %w", mailerr.ErrServerDown)
	ErrUnknownUser = fmt.Errorf("server: user has no mailbox here: %w", mailerr.ErrUnknownUser)
)

// Locator is §3.2.2c's search for a recipient not logged on with the server
// (internal/locind, one per server). Locate runs after each fresh deposit for
// such a user; Receive handles the procedure's own payloads and reports false
// for any other. §3.1 has none: such mail waits for the next login or poll.
type Locator interface {
	Locate(user names.Name, id mail.MessageID)
	Receive(env netsim.Envelope) bool
}

// Config configures a Server.
type Config struct {
	ID      graph.NodeID
	Region  string
	Net     *netsim.Network
	Dir     Resolver   // this region's names: the replicated directory, or §3.2's sub-groups
	Regions *RegionMap // global region → servers map
	Locate  Locator    // §3.2.2c's location procedure; nil in §3.1
	// RetryTimeout is the floor of a transfer's ack timer: a transfer (or a
	// batch) waits for its ack the larger of this and its route's zero-load
	// round trip plus two paper time units (ackTimeout) before trying the
	// next candidate. Zero means 8 paper time units.
	RetryTimeout sim.Time
	// Trace, when set, stamps every message's progress through the §3.1.2
	// pipeline (submit → resolve → relay → deposit → notify → retrieve).
	// Typically one tracer is shared by every server of a deployment so a
	// relayed message accumulates a single span chain. Nil disables tracing.
	Trace *obs.Tracer
	// BatchSize enables the relay-batching fabric: outgoing transfers are
	// coalesced per destination server and flushed as one TransferBatch
	// envelope when BatchSize items are staged or FlushInterval elapses,
	// whichever comes first. Values <= 1 disable batching entirely — every
	// transfer takes the classic single-Transfer path, byte-for-byte
	// identical to the pre-batching server (pinned by equivalence tests).
	BatchSize int
	// FlushInterval bounds how long a staged transfer may wait for its
	// batch to fill. Zero means 2 paper time units. Ignored when
	// BatchSize <= 1.
	FlushInterval sim.Time
	// DataDir, when set, makes the mailbox store durable: every mutation is
	// WAL-logged under this directory and Kill/RestartFromDisk recovers
	// from it. Empty keeps the historical memory-only store, where a Kill
	// genuinely loses the buffered mail (the negative control).
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode
	// OnlinePlacement says that users can be re-placed while transfers are
	// in flight, as the online placement policies of internal/placement do.
	// It turns on two things. A deposit transfer that arrives at a backup
	// while the recipient's primary is up re-enters routing, as one arriving
	// at a server no longer on the recipient's list always does. And the
	// inter-region relay entry point rotates per message: §3.1.1's relay
	// function can be provided by any server of the region, and always
	// dispatching to the region list's head builds a fixed transit hot spot
	// in front of whatever the policy chose. Off (the default), a backup
	// deposits whatever reaches it and relays go head-first, which static
	// deployments rely on.
	OnlinePlacement bool
}

// Server is a mail server process. Not safe for concurrent use; it runs on
// the simulation event loop.
type Server struct {
	id      graph.NodeID
	region  string
	net     *netsim.Network
	dir     Resolver
	regions *RegionMap
	locate  Locator

	onlinePlacement bool
	retryTimeout    sim.Time
	dataDir         string
	fsync           mailstore.FsyncMode
	killed          bool
	// walBase accumulates the WAL counters of stores replaced by
	// kill-restart cycles, so WALStats stays cumulative.
	walBase mailstore.WALStats

	store     *mailstore.Store
	online    map[names.Name]graph.NodeID
	nextSeq   uint64
	nextToken uint64
	pending   map[uint64]*pendingTransfer
	// freePending holds settled records for the next enqueue (see
	// pendingTransfer); the server is single-threaded, so a plain stack does.
	freePending []*pendingTransfer
	// The envelopes this server sends per copy ride boxes from these lists;
	// the network hands each back when its flight ends (netsim.FreeList).
	transfers netsim.FreeList[Transfer]
	acks      netsim.FreeList[TransferAck]
	notifies  netsim.FreeList[Notify]
	batches   netsim.FreeList[TransferBatch]
	batchAcks netsim.FreeList[TransferBatchAck]
	// rerouted remembers the transfers this server already re-routed as
	// misplaced. Retries of the same transfer (our ack racing the origin's
	// timeout) must not each spawn another forward: the first forward sits in
	// the pending ledger with its own retries, and under congestion the
	// duplicates snowball into a transfer storm.
	rerouted map[rerouteKey]bool

	// Relay-batching state (inactive when batchSize <= 1): staged holds
	// per-destination batches being filled; inflight holds flushed batches
	// awaiting their TransferBatchAck, freeStaged and freeInflight the records
	// of flushed and of settled batches.
	batchSize    int
	flushEvery   sim.Time
	staged       map[graph.NodeID]*stagedBatch
	inflight     map[uint64]*inflightBatch
	freeStaged   []*stagedBatch
	freeInflight []*inflightBatch
	nextBatch    uint64

	// toBuf is where accept's copies of recipient lists are carved from.
	toBuf []names.Name

	stats *obs.Registry
	trace *obs.Tracer // nil-safe; shared across the deployment when set
	// where names this server in span events, matching the per-entity
	// instrument prefix convention ("s<node>"); interned once, stamped often.
	where obs.Site
}

// rerouteKey identifies one transfer for reroute dedup: its retries carry its
// origin and token. It is not the copy — the same copy may reach a server
// again under a later transfer (a rehash moved it away and back, then away
// again), and that arrival must re-route, not be dropped as a retry.
type rerouteKey struct {
	origin graph.NodeID
	tok    uint64
}

// pendingTransfer is a queued server-to-server transfer awaiting its ack. It
// owns its retry timer: retry is the scheduler record, armed by dispatch with
// the transfer itself as the runner.
//
// Records are recycled: settle cancels the retry timer, takes the record out
// of s.pending and puts it on s.freePending, and enqueue hands it to the next
// transfer under a fresh token. That is safe because a record is only ever
// reached through s.pending, by token: acks, batch acks, staged and in-flight
// batches and recovery all carry tokens, never pointers, and the one pointer
// the scheduler holds (the armed retry) is cancelled before the record is
// released. So a late or duplicate ack finds its token gone and stops, and no
// timer armed for one tenant can fire for the next.
type pendingTransfer struct {
	retry      sim.Event
	s          *Server
	tok        uint64
	kind       TransferKind
	msg        mail.Message
	recipient  names.Name
	candidates []graph.NodeID // servers to try, in order; shared, never edited
	next       int            // index of the next candidate to try
	attempt    int
}

// transfer is the record as it goes on the wire, alone or as a batch item;
// both senders call it once per send, so it counts the deposit-kind ones.
func (p *pendingTransfer) transfer() Transfer {
	if p.kind == TransferDeposit {
		p.s.stats.Inc("deposit_transfers")
	}
	return Transfer{
		Kind: p.kind, Msg: p.msg, Recipient: p.recipient,
		Origin: p.s.id, Token: p.tok,
	}
}

// take pops a recycled record off a free list, or makes one when none has
// been released yet. The server is single-threaded, so plain stacks do.
func take[T any](free *[]*T) *T {
	last := len(*free) - 1
	if last < 0 {
		return new(T)
	}
	r := (*free)[last]
	*free = (*free)[:last]
	return r
}

// Run is the retry timeout: no ack arrived, try the next candidate.
func (p *pendingTransfer) Run() {
	if _, still := p.s.pending[p.tok]; still && p.s.Up() {
		p.s.dispatch(p.tok)
	}
}

// New creates a server and registers it on its network node.
func New(cfg Config) (*Server, error) {
	if cfg.Net == nil || cfg.Dir == nil || cfg.Regions == nil {
		return nil, errors.New("server: Net, Dir and Regions are required")
	}
	if cfg.Dir.Region() != cfg.Region {
		return nil, fmt.Errorf("server: directory covers region %q, server is in %q",
			cfg.Dir.Region(), cfg.Region)
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 8 * sim.Unit
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * sim.Unit
	}
	store := mailstore.New(mailstore.DefaultShards)
	if cfg.DataDir != "" {
		var err error
		store, err = mailstore.OpenOptions(mailstore.Options{
			Dir: cfg.DataDir, Shards: mailstore.DefaultShards, Fsync: cfg.Fsync,
		})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		id:              cfg.ID,
		region:          cfg.Region,
		net:             cfg.Net,
		dir:             cfg.Dir,
		regions:         cfg.Regions,
		locate:          cfg.Locate,
		onlinePlacement: cfg.OnlinePlacement,
		retryTimeout:    cfg.RetryTimeout,
		dataDir:         cfg.DataDir,
		fsync:           cfg.Fsync,
		store:           store,
		online:          make(map[names.Name]graph.NodeID),
		pending:         make(map[uint64]*pendingTransfer),
		rerouted:        make(map[rerouteKey]bool),
		batchSize:       cfg.BatchSize,
		flushEvery:      cfg.FlushInterval,
		staged:          make(map[graph.NodeID]*stagedBatch),
		inflight:        make(map[uint64]*inflightBatch),
		stats:           obs.NewRegistry(),
		trace:           cfg.Trace,
		where:           obs.Intern(fmt.Sprintf("s%d", cfg.ID)),
	}
	if err := cfg.Net.Register(cfg.ID, s); err != nil {
		return nil, err
	}
	cfg.Regions.AddServer(cfg.Region, cfg.ID)
	return s, nil
}

// ID returns the server's node ID.
func (s *Server) ID() graph.NodeID { return s.id }

// Region returns the server's region.
func (s *Server) Region() string { return s.region }

// Stats returns the server's counters: "submissions", "deposits_local",
// "transfers_out", "forwards_in", "retries", "notifies", "login_alerts".
func (s *Server) Stats() *obs.Registry { return s.stats }

// Up reports whether the server is currently up.
func (s *Server) Up() bool { return s.net.IsUp(s.id) }

// MailboxLen reports how many messages are buffered for a user here.
func (s *Server) MailboxLen(user names.Name) int { return s.store.Len(user) }

// Store exposes the server's sharded mailbox store.
func (s *Server) Store() *mailstore.Store { return s.store }

// WALStats reports the server's cumulative WAL write-path counters across
// kill-restart cycles (a restart swaps in a fresh store whose own counters
// start at zero); ok is false for memory-only servers.
func (s *Server) WALStats() (mailstore.WALStats, bool) {
	ws, ok := s.store.WALStats()
	if !ok {
		return mailstore.WALStats{}, false
	}
	ws.Add(s.walBase)
	return ws, true
}

// Receive implements netsim.Handler. The server-to-server payloads arrive in
// boxes the network takes back when Receive returns: each arm hands its
// handler the value, and no handler keeps a pointer into the box (a batch's
// items are read in place and copied one by one). What no arm knows goes to
// the Locator, when there is one.
func (s *Server) Receive(env netsim.Envelope) {
	switch p := env.Payload.(type) {
	case SubmitRequest:
		s.handleSubmit(env.From, p)
	case *netsim.Box[Transfer]:
		s.handleTransfer(p.V)
	case *netsim.Box[TransferAck]:
		s.handleAck(p.V)
	case *netsim.Box[TransferBatch]:
		s.handleTransferBatch(p.V)
	case *netsim.Box[TransferBatchAck]:
		s.handleBatchAck(p.V)
	case Login:
		s.handleLogin(p)
	case *netsim.Box[Login]:
		s.handleLogin(p.V)
	case Logout:
		delete(s.online, p.User)
	case *netsim.Box[Logout]:
		delete(s.online, p.V.User)
	default:
		if s.locate == nil || !s.locate.Receive(env) {
			s.stats.Inc("unknown_payload")
		}
	}
}

// Crashed implements netsim.Crasher: pending retry timers stop while down,
// and the batching fabric's staged and in-flight batches dissolve — their
// items stay ledgered in s.pending (stable storage) and are re-dispatched
// individually on recovery.
func (s *Server) Crashed(sim.Time) {
	for _, p := range s.pending {
		s.net.Scheduler().Cancel(&p.retry)
	}
	s.dissolveBatches()
}

// dissolveBatches drops every staged and in-flight batch with its timer;
// the items stay in s.pending.
func (s *Server) dissolveBatches() {
	for _, b := range s.staged {
		s.releaseStaged(b)
	}
	for _, fb := range s.inflight {
		s.releaseBatch(fb)
	}
}

// Recovered implements netsim.Recoverer: queued transfers resume from stable
// storage. The hook also fires on reconnection (link restore) while the
// server is up, so any staged or in-flight batches dissolve first — their
// items are re-driven individually below, and a stale duplicate envelope
// would only waste traffic. Each transfer restarts its candidate walk at
// the head of the list: a recovery re-drive is a fresh delivery decision,
// and §3.1.2c wants the deposit at the first *active* authority server —
// resuming mid-rotation could park mail at a secondary while the primary
// is healthy, where no retrieval walk would ever look.
func (s *Server) Recovered(sim.Time) {
	s.dissolveBatches()
	tokens := make([]uint64, 0, len(s.pending))
	for tok := range s.pending {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	for _, tok := range tokens {
		s.pending[tok].next = 0
		s.dispatch(tok)
	}
}

// handleSubmit accepts a message from a user interface, assigns its ID, and
// routes a copy to every recipient.
func (s *Server) handleSubmit(from graph.NodeID, req SubmitRequest) {
	msg := s.accept(req)
	// Ack the submitting host so the user interface learns the ID.
	_ = s.net.Send(s.id, from, SubmitAck{ID: msg.ID, Subject: msg.Subject})
	for _, rcpt := range msg.To {
		s.Route(msg, rcpt)
	}
}

// accept assigns the next message ID, stamps the submission, and counts it.
func (s *Server) accept(req SubmitRequest) mail.Message {
	s.nextSeq++
	msg := mail.Message{
		ID:          mail.MessageID{Node: s.id, Seq: s.nextSeq},
		From:        req.From,
		To:          s.keepTo(req.To),
		Subject:     req.Subject,
		Body:        req.Body,
		SubmittedAt: s.net.Scheduler().Now(),
	}
	s.stats.Inc("submissions")
	s.trace.StampKey(msg.ID.TraceKey(), obs.StageSubmit, s.where)
	return msg
}

// keepTo is the server's own copy of a submission's recipients, carved from
// a chunk of toChunk names shared with the messages accepted before and after
// it. The copy's capacity is clipped, so an append to one message's To moves
// it to a fresh array and never writes into a neighbour's list.
func (s *Server) keepTo(to []names.Name) []names.Name {
	if len(to) == 0 {
		return nil
	}
	if cap(s.toBuf)-len(s.toBuf) < len(to) {
		s.toBuf = make([]names.Name, 0, max(toChunk, len(to)))
	}
	start := len(s.toBuf)
	s.toBuf = append(s.toBuf, to...)
	return s.toBuf[start:len(s.toBuf):len(s.toBuf)]
}

// toChunk is how many recipient names keepTo carves from one array: 64 × 48 B,
// a 3 KB size class.
const toChunk = 64

// Submit accepts a submission handed to the server in-process and returns the
// assigned message ID synchronously — the batch ingestion hook for drivers
// (internal/loadgen) that generate traffic at population scale. Going through
// the network path costs two scheduled events per message (SubmitRequest in,
// SubmitAck back) before delivery even starts; a closed-loop generator pushing
// 10⁵–10⁶ submissions would spend most of the event budget on that framing.
// Submit skips both: acceptance is the successful return (the commit point the
// no-loss audit ledgers against), and only the delivery pipeline itself —
// resolve, transfer, deposit, notify — runs on the scheduler. A down server
// rejects the submission with ErrDown, exactly as the network would have
// dropped the SubmitRequest.
func (s *Server) Submit(req SubmitRequest) (mail.MessageID, error) {
	if !s.Up() {
		return mail.MessageID{}, fmt.Errorf("%w: %d", ErrDown, s.id)
	}
	msg := s.accept(req)
	for _, rcpt := range msg.To {
		s.Route(msg, rcpt)
	}
	return msg.ID, nil
}

// Route sends one copy of msg toward one recipient, the name-resolution-and-
// forwarding step of §3.1.2b: local names are resolved against the regional
// directory and deposited at the recipient's first active authority server;
// non-local names are relayed to a server in the recipient's region.
func (s *Server) Route(msg mail.Message, rcpt names.Name) {
	if rcpt.Region == s.region {
		s.deliverLocal(msg, rcpt)
		return
	}
	candidates := s.regions.Servers(rcpt.Region)
	if len(candidates) == 0 {
		s.stats.Inc("unroutable")
		return
	}
	if s.onlinePlacement && len(candidates) > 1 {
		rot := int(msg.ID.Seq % uint64(len(candidates)))
		rotated := make([]graph.NodeID, 0, len(candidates))
		rotated = append(rotated, candidates[rot:]...)
		rotated = append(rotated, candidates[:rot]...)
		candidates = rotated
	}
	s.trace.StampKey(msg.ID.TraceKey(), obs.StageRelay, s.where)
	s.enqueue(TransferForward, msg, rcpt, candidates)
}

// deliverLocal resolves a local recipient and deposits the message at the
// first active authority server ("mail will be deposited in the first
// active server from the list", §3.1.2c).
func (s *Server) deliverLocal(msg mail.Message, rcpt names.Name) {
	list := s.dir.Resolve(rcpt)
	if len(list) == 0 {
		// A distribution list fans out to its members (§4.3 group naming).
		if members, ok := s.dir.Group(rcpt); ok {
			if msg.Expansions >= MaxGroupExpansions {
				// Cyclic group definitions (A ∈ B, B ∈ A) would loop mail
				// between regions forever without this cap.
				s.stats.Inc("group_loops_dropped")
				return
			}
			s.stats.Inc("group_expansions")
			expanded := msg
			expanded.Expansions++
			for _, member := range members {
				if member == rcpt {
					continue // a list must not contain itself
				}
				s.Route(expanded, member)
			}
			return
		}
		// The user may have migrated away (§3.1.4): follow the redirect.
		if fwd, ok := s.dir.Redirect(rcpt); ok {
			s.stats.Inc("redirects")
			s.Route(msg, fwd)
			return
		}
		s.stats.Inc("unresolvable")
		return
	}
	s.trace.StampKey(msg.ID.TraceKey(), obs.StageResolve, s.where)
	// If this server is the first *active* authority server, deposit
	// without network traffic.
	for _, cand := range list {
		if !s.net.IsUp(cand) {
			continue
		}
		if cand == s.id {
			s.depositLocal(msg, rcpt)
			return
		}
		break
	}
	s.enqueue(TransferDeposit, msg, rcpt, list)
}

// depositLocal buffers the message here and notifies the recipient if they
// are logged on.
func (s *Server) depositLocal(msg mail.Message, rcpt names.Name) {
	if !s.store.Deposit(rcpt, msg, s.net.Scheduler().Now()) {
		s.stats.Inc("duplicate_deposits")
		return
	}
	s.stats.Inc("deposits_local")
	s.trace.StampKey(msg.ID.TraceKey(), obs.StageDeposit, s.where)
	if host, ok := s.online[rcpt]; ok {
		s.stats.Inc("notifies")
		s.trace.StampKey(msg.ID.TraceKey(), obs.StageNotify, s.where)
		_ = s.net.Send(s.id, host, s.notifies.Box(Notify{User: rcpt, ID: msg.ID, Server: s.id}))
	} else if s.locate != nil {
		s.locate.Locate(rcpt, msg.ID)
	}
}

// enqueue creates a pending transfer against the candidate list — kept, not
// copied: a resolved authority list is immutable, a relay list is the
// caller's own — and either
// dispatches its first attempt immediately (batchSize <= 1: the classic
// single-Transfer protocol, unchanged) or stages it into the per-destination
// batch for coalesced delivery.
func (s *Server) enqueue(kind TransferKind, msg mail.Message, rcpt names.Name, candidates []graph.NodeID) {
	s.nextToken++
	tok := s.nextToken
	p := take(&s.freePending)
	*p = pendingTransfer{
		s: s, tok: tok,
		kind:       kind,
		msg:        msg,
		recipient:  rcpt,
		candidates: candidates,
	}
	s.pending[tok] = p
	if s.batchSize <= 1 {
		s.dispatch(tok)
		return
	}
	s.stage(tok)
}

// dispatch sends the pending transfer to its next candidate and arms the
// retry timer. Candidates are tried cyclically, preferring ones that look
// up; if none look up the next in order is tried anyway (its state may be
// stale knowledge).
func (s *Server) dispatch(tok uint64) {
	p, ok := s.pending[tok]
	if !ok || !s.Up() {
		return
	}
	target := s.pickCandidate(p)
	p.attempt++
	if p.attempt > 1 {
		s.stats.Inc("retries")
	}
	s.stats.Inc("transfers_out")
	s.stats.Inc("relay_envelopes") // one physical envelope per single transfer
	_ = s.net.Send(s.id, target, s.transfers.Box(p.transfer()))
	sched := s.net.Scheduler()
	sched.Schedule(&p.retry, sched.Now()+s.ackTimeout(target), p)
}

// ackTimeout is how long a transfer to target waits for its ack: the route's
// zero-load round trip (§3.1.1's C(i,j) each way) plus two units of slack, so
// no retry fires before the ack could be back, and at least retryTimeout.
func (s *Server) ackTimeout(target graph.NodeID) sim.Time {
	c, err := s.net.Cost(s.id, target)
	if err != nil {
		return s.retryTimeout
	}
	return max(s.retryTimeout, 2*sim.Time(c*float64(s.net.DelayPerCost))+2*sim.Unit)
}

// pickCandidate chooses the next candidate, preferring up servers starting
// from p.next, wrapping around. The server itself is a valid candidate
// (e.g. after its own recovery); self-sends deliver locally at zero cost.
func (s *Server) pickCandidate(p *pendingTransfer) graph.NodeID {
	n := len(p.candidates)
	for i := 0; i < n; i++ {
		cand := p.candidates[(p.next+i)%n]
		if s.net.IsUp(cand) {
			p.next = (p.next + i + 1) % n
			return cand
		}
	}
	// Nothing looks up; advance blindly and let the timeout drive retries.
	cand := p.candidates[p.next%n]
	p.next = (p.next + 1) % n
	return cand
}

// handleTransfer processes a server-to-server transfer and acks it.
func (s *Server) handleTransfer(tr Transfer) {
	_ = s.net.Send(s.id, tr.Origin, s.acks.Box(TransferAck{Token: tr.Token}))
	s.handleItem(tr)
}

// handleItem is what a received transfer does once it is here, alone in its
// envelope or as one item of a batch: deposit (or re-route a deposit a
// reconfiguration or the placement policy has moved away), or deliver a
// forward. It reports false for a kind it does not know.
func (s *Server) handleItem(tr Transfer) bool {
	switch tr.Kind {
	case TransferDeposit:
		if s.misplacedDeposit(tr.Recipient) {
			key := rerouteKey{origin: tr.Origin, tok: tr.Token}
			switch {
			case s.rerouted[key]:
				// A retry of a transfer already forwarded (our ack raced the
				// origin's timeout). The first forward is in the pending
				// ledger with its own retries; another would snowball.
				s.stats.Inc("reroute_retries_dropped")
				return true
			case tr.Msg.Expansions >= MaxGroupExpansions:
				// A migration storm could bounce a copy between stale lists
				// forever; past the cap, deposit here — the migration drain
				// or redirect grace period picks it up.
				s.stats.Inc("reroute_loops_dropped")
			default:
				s.stats.Inc("deposit_reroutes")
				s.rerouted[key] = true
				m := tr.Msg
				m.Expansions++
				s.Route(m, tr.Recipient)
				return true
			}
		}
		s.depositLocal(tr.Msg, tr.Recipient)
	case TransferForward:
		s.stats.Inc("forwards_in")
		if tr.Recipient.Region != s.region {
			// Mis-routed (e.g. stale region map): route onward.
			s.Route(tr.Msg, tr.Recipient)
			return true
		}
		s.deliverLocal(tr.Msg, tr.Recipient)
	default:
		return false
	}
	return true
}

// misplacedDeposit reports whether a deposit arriving here is for a user
// whose current authority list no longer includes this server — the transfer
// was addressed under a list a reconfiguration (a server removed, §3.2's
// rehash) or the placement policy has since changed; buffered here, the copy
// would sit where no retrieval walk looks. Unknown users (empty list:
// redirects mid-grace, group names) are not misplaced; deliverLocal handles
// those.
func (s *Server) misplacedDeposit(rcpt names.Name) bool {
	list := s.dir.Resolve(rcpt)
	if len(list) == 0 || list[0] == s.id {
		return false
	}
	for _, cand := range list {
		if cand == s.id {
			// A backup. §3.1.2b failover deposits are legitimate while the
			// primary is unreachable — the agent observes the outage and its
			// next walk polls the whole list. But a failover that lands
			// AFTER the primary recovered (the origin gave up during an
			// outage the agent never saw; congestion delivered the fallback
			// late) would strand: the walk stops at the live primary. Under
			// OnlinePlacement, treat it as misplaced so it re-routes to the
			// primary.
			return s.onlinePlacement && s.net.IsUp(list[0])
		}
	}
	return true
}

func (s *Server) handleAck(ack TransferAck) {
	if p, ok := s.pending[ack.Token]; ok {
		s.settle(p)
	}
}

// settle takes an acknowledged transfer off the ledger and recycles its
// record, timer cancelled first and message dropped.
func (s *Server) settle(p *pendingTransfer) {
	s.net.Scheduler().Cancel(&p.retry)
	delete(s.pending, p.tok)
	*p = pendingTransfer{}
	s.freePending = append(s.freePending, p)
}

func (s *Server) handleLogin(l Login) {
	s.online[l.User] = l.Host
	s.stats.Inc("logins")
	// "...or notify him as soon as he is connected to the system" — tell a
	// connecting user about buffered mail.
	var first mail.MessageID
	ok := s.store.View(l.User, func(mb *mail.Mailbox) {
		if mb.Len() > 0 {
			first = mb.Peek()[0].ID
		}
	})
	if ok && !first.IsZero() {
		s.stats.Inc("login_alerts")
		s.trace.StampKey(first.TraceKey(), obs.StageNotify, s.where)
		_ = s.net.Send(s.id, l.Host, s.notifies.Box(Notify{User: l.User, ID: first, Server: s.id}))
	}
}

// PendingTransfers reports how many transfers are queued awaiting acks.
func (s *Server) PendingTransfers() int { return len(s.pending) }

// Online reports the host a user is logged on at through this server.
func (s *Server) Online(user names.Name) (graph.NodeID, bool) {
	host, ok := s.online[user]
	return host, ok
}

// Kill models a process death — the failure mode Crash deliberately does
// not: the network node goes down AND the in-memory mailbox state is
// destroyed. With DataDir the store is closed (every acknowledged mutation
// is already in the WAL); without it the store is replaced by an empty one,
// which is exactly the loss durability exists to prevent (the negative
// control in the chaos tests). The pending-transfer ledger is the
// simulation's separate stable storage for in-flight transfers and survives
// either way. Idempotent.
func (s *Server) Kill() error {
	if s.killed {
		return nil
	}
	s.killed = true
	s.net.Crash(s.id)
	if s.dataDir != "" {
		return s.store.Close()
	}
	s.store = mailstore.New(mailstore.DefaultShards)
	return nil
}

// RestartFromDisk brings a killed server back. With DataDir the mailbox
// store is recovered by replaying its snapshot+WAL segments; without it the
// server restarts empty. The netsim Recover stamps LastStartTime — the
// recovered store's own stamp backs the same §3.1.2c comparison on the live
// transport — and fires the Recovered hook, re-driving the pending ledger.
// Idempotent.
func (s *Server) RestartFromDisk() error {
	if !s.killed {
		return nil
	}
	if s.dataDir != "" {
		st, err := mailstore.OpenOptions(mailstore.Options{
			Dir: s.dataDir, Shards: mailstore.DefaultShards, Fsync: s.fsync,
		})
		if err != nil {
			return err
		}
		// The fresh store's counters start at zero; fold the outgoing
		// store's totals into the base so WALStats stays cumulative. Its
		// latch goes with it.
		if ws, ok := s.store.WALStats(); ok {
			ws.Latched = 0
			s.walBase.Add(ws)
		}
		s.store = st
	}
	s.killed = false
	s.net.Recover(s.id)
	return nil
}

// Close syncs and closes the durable store; no-op for memory stores.
func (s *Server) Close() error { return s.store.Close() }

// Evacuate re-routes the buffered mail of every user the resolver no longer
// lists this server for — the hand-off step of a §3.1.3c server deletion
// ("notifies all other servers before it is removed") and of a §3.2.3c
// rehash. Each message is forgotten as it leaves: it is still undelivered,
// and a reconfiguration routing it back here must not find it suppressed as
// a duplicate. Returns how many mailboxes and messages moved.
func (s *Server) Evacuate() (users, msgs int) {
	for _, u := range s.store.Holding() { // only mailboxes with mail, sorted: deterministic hand-off order
		if slices.Contains(s.dir.Resolve(u), s.id) {
			continue
		}
		out := s.store.Drain(u)
		if len(out) == 0 {
			continue
		}
		s.store.UpdateExisting(u, func(mb *mail.Mailbox) {
			for _, m := range out {
				mb.Forget(m.ID)
			}
		})
		for _, m := range out {
			s.Route(m.Message, u)
		}
		users++
		msgs += len(out)
	}
	return users, msgs
}

// CheckMail removes and returns the user's buffered messages. It models the
// synchronous retrieve step of the GetMail procedure ("get mail from server")
// and fails when the server is down — the caller is expected to have checked
// liveness, but a race-free contract beats a convention.
func (s *Server) CheckMail(user names.Name) ([]mail.Stored, error) {
	if !s.Up() {
		return nil, fmt.Errorf("%w: %d", ErrDown, s.id)
	}
	out := s.store.Drain(user)
	if len(out) > 0 {
		// Paired with "deposits_local" this gives the queue depth the JSQ(d)
		// placement policy samples: deposits_local − retrieved_msgs.
		s.stats.Add("retrieved_msgs", int64(len(out)))
	}
	s.stampRetrieved(out)
	return out, nil
}

// DrainMailbox empties the user's mailbox for a placement-migration
// handover: this server is leaving the user's authority list, and a copy it
// retains is a copy no retrieval walk will ever visit. Copies the recipient
// already has — per alreadySeen, typically the user agent's
// duplicate-suppression set; these are straggler re-routed retries — are
// removed but not returned and not stamped: they are not deliveries, and a
// second retrieve stamp would double-sample the latency histograms with a
// bogus sojourn. All drained
// copies still count toward "retrieved_msgs" so the qdepth gauge
// (deposits − retrievals) returns to zero for the emptied mailbox.
func (s *Server) DrainMailbox(user names.Name, alreadySeen func(mail.MessageID) bool) []mail.Stored {
	out := s.store.Drain(user)
	if len(out) == 0 {
		return nil
	}
	fresh := out[:0]
	for _, m := range out {
		if alreadySeen != nil && alreadySeen(m.ID) {
			s.stats.Inc("drain_stale_discarded")
			continue
		}
		fresh = append(fresh, m)
	}
	s.stats.Add("retrieved_msgs", int64(len(out)))
	s.stampRetrieved(fresh)
	return fresh
}

// stampRetrieved closes the lifecycle span of each collected message.
func (s *Server) stampRetrieved(msgs []mail.Stored) {
	if s.trace == nil {
		return
	}
	for _, m := range msgs {
		s.trace.StampKey(m.ID.TraceKey(), obs.StageRetrieve, s.where)
	}
}

// LookupAuthority answers a name-service query: the user's authority list
// from this server's replicated directory (§3.1.2a: "another method to
// establish connection between a user and a server is through a name
// server"). It fails when the server is down.
func (s *Server) LookupAuthority(user names.Name) ([]graph.NodeID, error) {
	if !s.Up() {
		return nil, fmt.Errorf("%w: %d", ErrDown, s.id)
	}
	s.stats.Inc("name_queries")
	list := s.dir.Resolve(user)
	if len(list) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, user)
	}
	return list, nil
}
