// Package wire exposes a live mail cluster (internal/livenet) over TCP. It is
// the deployable surface of the reproduction: the same authority-list and
// GetMail semantics the paper defines, reachable from real processes.
//
// Every connection speaks length-prefixed, CRC-checked frames (binframe.go)
// from its first byte, in both directions. A request carries an op, a
// client-assigned tag and the op's fields; a response echoes op and tag and
// carries ok, an optional error, and the op's results. Operations:
//
//	register  {user, servers[]}            → {ok}
//	submit    {from, to[], subject, body}  → {ok, id}
//	tbatch    {from, msgs[]}               → {ok, ids[], failed[]}  (batched submit)
//	checkmail {user, server}               → {ok, messages[]}
//	getmail   {user}                       → {ok, messages[], polls, last_checking}
//	query     {query}                      → {ok, matches[], query_stats}  (content search)
//	status    {}                           → {ok, status}       (versioned observability snapshot)
//	crash     {server} / recover {server}  → {ok}               (operations testing hook)
//
// The first five have frame layouts of their own; query, status and
// crash/recover travel as one JSON object in a binOpJSON frame. Failed
// responses carry an optional machine-readable code drawn from the mailerr
// taxonomy (unknown_user, server_down, oversized, timeout); clients
// reconstruct typed errors from it so errors.Is works across the TCP hop.
// The tag is what allows pipelining (Client.Pipeline): up to MaxInflight
// tagged requests in flight per connection. A peer that sends a JSON line
// instead has its first four bytes read as a length past MaxLine: it gets one
// ErrFrameTooLarge frame in answer, and the connection is closed.
//
// Server side, connections do not get a handler goroutine each. A reader
// goroutine per connection decodes requests and enqueues them on a
// per-connection FIFO queue drained by a bounded worker pool
// (WorkPool, size ServerConfig.WireWorkers), preserving
// per-connection order; a full queue blocks the reader, which is the
// transport's backpressure (see DESIGN.md §10).
//
// The status result is a versioned StatusSnapshot: per-server rows plus the
// cluster's full instrument set — counters, gauges, and per-stage latency
// histograms with precomputed p50/p95/p99 — so operational tooling (mailctl)
// and the machine-readable exports read the same registry, the wire-path
// instruments (wire_bytes_in/wire_bytes_out, lat_wire_decode) included.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// writeStallTimeout bounds one flush of a connection's buffered responses. A
// peer that stops reading cannot wedge a pool worker forever: the write times
// out, the connection is closed, and the worker moves on.
const writeStallTimeout = 30 * time.Second

// outFlushSize is how much buffered output makes a worker flush before its
// batch ends. Half of what putFrameBuf still pools: flushing only at the
// pooling limit would grow the buffer past it, and throw it away, every time.
const outFlushSize = connReaderBufSize / 2

// queuedPerConn caps one connection's decoded-but-unexecuted requests. A full
// queue blocks the connection's reader — backpressure, not disconnection.
const queuedPerConn = 64

// ServerConfig tunes a wire server beyond the cluster it fronts.
type ServerConfig struct {
	// Cluster configures the backing livenet cluster (durable stores via
	// DataDir, fsync policy, ...).
	Cluster livenet.ClusterConfig
	// WireWorkers bounds the worker pool that executes decoded requests
	// (0 → one worker per scheduler thread). This replaces goroutine-per-
	// connection handling: concurrency is this bound regardless of how many
	// connections are open.
	WireWorkers int
}

// Server serves the wire protocol over a listener, backed by a live
// cluster. Create with NewServer; stop with Close.
type Server struct {
	cluster    *livenet.Cluster
	names      []string // server names, registration order
	pool       *WorkPool
	termIndex  bool          // cluster runs the term index; query verb is servable
	writeStall time.Duration // writeStallTimeout; tests shorten it

	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	decodeLat *obs.Histogram

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	// agents holds one server-side agent per user so the getmail op uses
	// the paper's retrieval algorithm with persistent LastCheckingTime.
	// agentMu guards the map only; a walk runs under its own agent's lock, so
	// retrievals for different users proceed in parallel.
	agentMu sync.Mutex
	agents  map[names.Name]*userAgent
}

// userAgent is one user's server-side agent and the lock that makes it the
// single actor livenet.Agent requires, whichever connections poll for it: one
// allocation per user, made by the user's first getmail.
type userAgent struct {
	mu sync.Mutex
	a  livenet.Agent
}

// NewServer builds a memory-backed cluster with the given server names and
// starts accepting connections on addr (e.g. "127.0.0.1:0"). The returned
// server owns the cluster.
func NewServer(addr string, serverNames []string) (*Server, error) {
	return NewServerWith(addr, serverNames, ServerConfig{})
}

// NewServerWith is NewServer with the full server configuration: the cluster
// (durable stores via ClusterConfig.DataDir, ...) and the worker-pool size.
func NewServerWith(addr string, serverNames []string, cfg ServerConfig) (*Server, error) {
	if len(serverNames) == 0 {
		return nil, errors.New("wire: need at least one server name")
	}
	// The servers recover their stores concurrently; a failure closes them all.
	cluster := livenet.NewClusterWith(cfg.Cluster)
	errs := make([]error, len(serverNames))
	var wg sync.WaitGroup
	for i, n := range serverNames {
		wg.Add(1)
		go func() { defer wg.Done(); _, errs[i] = cluster.AddServer(n) }()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cluster.Close()
		return nil, err
	}
	// Spooled redelivery makes submits accept-and-retry instead of failing
	// outright when every authority server is briefly down.
	if err := cluster.EnableSpool(livenet.SpoolConfig{}); err != nil {
		cluster.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	reg := cluster.Obs()
	s := &Server{
		cluster:    cluster,
		names:      append([]string(nil), serverNames...),
		pool:       NewWorkPool(cfg.WireWorkers),
		termIndex:  cfg.Cluster.TermIndex,
		writeStall: writeStallTimeout,
		bytesIn:    reg.Counter("wire_bytes_in"),
		bytesOut:   reg.Counter("wire_bytes_out"),
		decodeLat:  reg.Histogram("lat_wire_decode", nil),
		ln:         ln,
		conns:      make(map[net.Conn]struct{}),
		agents:     make(map[names.Name]*userAgent),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Cluster exposes the backing live cluster — the hook load generators use
// for fault injection and settle checks against a wire server they own.
func (s *Server) Cluster() *livenet.Cluster { return s.cluster }

// Close stops accepting, closes every connection, waits for handlers to
// exit, and shuts down the worker pool and the cluster.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
	s.cluster.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// connState is one connection's write half. flushed is touched only by the
// worker holding the connection's queue; the reader observes it through the
// completion channel it waits on (answerLast), so no extra lock is needed.
//
// respond appends each response to out; the buffer goes to the socket in one
// write at the queue's batch end (Run) and early past outFlushSize — no
// timer: a lone request is a batch of one (DESIGN §10). out is borrowed from
// frameBufPool while it holds something. wmu guards it: the reader's last
// flush, as it hangs up, races a worker still holding a batch.
type connState struct {
	srv     *Server
	conn    net.Conn
	flushed chan struct{} // closed, after the flush, by the batch end behind an item the reader waits on

	subs []livenet.Submission // opTBatch's scratch; like flushed, only the worker touches it

	wmu sync.Mutex
	out *[]byte
}

// respond appends one response frame to the connection's output buffer.
func (st *connState) respond(op byte, tag uint32, resp Response) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.out == nil {
		st.out = getFrameBuf()
	}
	buf, err := AppendBinaryResponse(*st.out, op, tag, resp)
	if err != nil {
		buf, _ = AppendBinaryResponse(buf, op, tag, Response{Error: "response too large", Code: mailerr.Code(err)})
	}
	// Encoded, or refused as too large: either way nothing reads the batch
	// again, and its strings have been copied into buf.
	mail.Release(resp.stored)
	*st.out = buf
	if len(buf) >= outFlushSize {
		st.writeLocked()
	}
}

// writeLocked sends the buffered output in one write and empties the buffer.
// Caller holds wmu.
func (st *connState) writeLocked() {
	_ = st.conn.SetWriteDeadline(time.Now().Add(st.srv.writeStall))
	n, err := st.conn.Write(*st.out)
	if n > 0 {
		st.srv.bytesOut.Add(int64(n))
	}
	if err != nil {
		// A dead or stalled peer: close so the reader unblocks too.
		_ = st.conn.Close()
	}
	*st.out = (*st.out)[:0]
}

// flush sends whatever is buffered and gives the buffer back.
func (st *connState) flush() {
	st.wmu.Lock()
	if st.out != nil {
		if len(*st.out) > 0 {
			st.writeLocked()
		}
		putFrameBuf(st.out)
		st.out = nil
	}
	st.wmu.Unlock()
}

// Run is the batch end of the connection's work queue: one write for all the
// responses the batch produced. An item the reader waits on — its own error
// answer — is always the last of its batch, so the flush here is also what
// puts that answer on the wire before the reader hangs up.
func (st *connState) Run() {
	st.flush()
	if st.flushed != nil {
		close(st.flushed)
		st.flushed = nil
	}
}

// work is one decoded request on its way through a connection's queue. Items
// are pooled: the reader fills every field, and Run — the only thing that
// ever happens to a queued item — empties it and puts it back, so no body,
// tag or connection outlives its request there.
type work struct {
	st  *connState
	req Request
	tag uint32
	op  byte
}

var workPool = sync.Pool{New: func() any { return new(work) }}

func (w *work) Run() {
	w.st.respond(w.op, w.tag, w.st.srv.dispatch(w.req, w.st))
	*w = work{}
	workPool.Put(w)
}

// countingReader feeds the wire_bytes_in counter from the socket reads
// underneath the buffered reader.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(int64(n))
	}
	return n, err
}

// handle is one connection's reader loop: read and decode a frame, enqueue
// its request on the connection's work queue, repeat. Execution and response
// writes happen on the worker pool; a full queue blocks this loop, which
// stops reading the socket — backpressure via the peer's TCP window.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	st := &connState{srv: s, conn: conn}
	q := s.pool.NewQueue(queuedPerConn, st)
	cr := newConnReader(countingReader{r: conn, c: s.bytesIn})
	framep := getFrameBuf()
	defer func() {
		q.Close()
		st.flush() // what the worker has answered so far still goes out
		putFrameBuf(framep)
		cr.release()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	for s.serveFrame(cr, framep, q, st) {
	}
}

// serveFrame reads one frame and queues its request. A length past MaxLine —
// a text line's first four bytes among them — or a bad CRC is answered, and
// the connection is dropped: the stream cannot be resynchronized.
func (s *Server) serveFrame(cr *connReader, framep *[]byte, q *WorkQueue, st *connState) bool {
	payload, err := cr.readFrame(framep)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameCorrupt) {
			answerLast(q, st, 0, Response{Error: err.Error(), Code: mailerr.Code(err)})
		}
		return false
	}
	return s.servePayload(payload, q, st)
}

// servePayload decodes one checksummed frame payload and queues the request.
func (s *Server) servePayload(payload []byte, q *WorkQueue, st *connState) bool {
	start := time.Now()
	req, tag, derr := s.decodeFrame(payload)
	s.decodeLat.Observe(float64(time.Since(start)))
	if derr != nil {
		// The frame checksummed clean but the payload is malformed: the
		// peer's codec cannot be trusted, so answer and drop the connection.
		answerLast(q, st, tag, Response{Error: derr.Error(), Code: mailerr.Code(derr)})
		return false
	}
	op := payload[0]
	if op == binOpJSON && binaryOpFor(req.Op) != binOpJSON {
		// Each verb has one encoding: a hot one wrapped in JSON is refused, and
		// the connection goes on.
		resp := Response{Error: fmt.Sprintf("op %q has a frame layout of its own and is not served as JSON", req.Op)}
		return q.Enqueue(func() { st.respond(binOpJSON, tag, resp) })
	}
	w := workPool.Get().(*work)
	w.st, w.req, w.tag, w.op = st, req, tag, op
	return q.EnqueueRunner(w)
}

// decodeFrame is DecodeBinaryRequest as a connection's reader runs it. A
// native getmail — what a poll loop sends, nearly always to find nothing — is
// bound to its user's agent here, from the frame's bytes: no string is made of
// the name, and the worker neither parses it nor looks it up. A name bind
// cannot resolve is no error yet: the request goes on by name, and opGetMail
// answers in its own words when its turn comes. Bytes behind the name are
// ignored, as DecodeBinaryRequest ignores them.
func (s *Server) decodeFrame(payload []byte) (Request, uint32, error) {
	if req, tag, ok := decodeSubmit(payload); ok {
		return req, tag, nil
	}
	if len(payload) == 0 || payload[0] != binOpGetMail {
		return DecodeBinaryRequest(payload)
	}
	r := binReader{b: payload}
	r.byte1()
	tag := r.u32()
	user := r.bytes()
	if r.bad {
		return Request{}, tag, errBadPayload
	}
	req := Request{Op: "getmail"}
	if req.agent = s.bind(user); req.agent == nil {
		req.User = string(user)
	}
	return req, tag, nil
}

// decodeSubmit decodes a native submit with its recipients as the names the
// cluster keeps (Request.to), aliasing the payload string as the body does.
// False for any other frame, and for one DecodeBinaryRequest must decode: a
// malformed one, or one with a recipient that is no name.
func decodeSubmit(payload []byte) (req Request, tag uint32, ok bool) {
	r := binReader{b: payload}
	if r.byte1() != binOpSubmit {
		return req, 0, false
	}
	tag = r.u32()
	req = Request{Op: "submit", From: r.str(), Subject: r.str(), Body: r.str(), to: make([]names.Name, r.count())}
	for i := range req.to {
		to, err := names.Parse(r.str())
		if err != nil {
			return Request{}, tag, false
		}
		req.to[i] = to
	}
	return req, tag, !r.bad
}

// bind resolves a user's name, still text in the read buffer, to the user's
// agent: from the agent table or, at a user's first getmail, made under the
// name the directory registered. Nil when the text is no name or names no
// registered user — one whose register is still queued ahead of this frame on
// the same connection included.
func (s *Server) bind(text []byte) *userAgent {
	region, host, user, ok := names.Tokens(text)
	if !ok {
		return nil
	}
	s.agentMu.Lock()
	ua := s.agents[names.Name{Region: string(region), Host: string(host), User: string(user)}]
	s.agentMu.Unlock()
	if ua == nil {
		if registered, ok := s.cluster.Directory().Registered(region, host, user); ok {
			ua, _ = s.agentFor(registered)
		}
	}
	return ua
}

// agentFor returns the user's agent, making it at the user's first getmail.
// The directory is read outside agentMu; of two first getmails that race, one
// agent is kept and both use it.
func (s *Server) agentFor(user names.Name) (*userAgent, error) {
	s.agentMu.Lock()
	ua := s.agents[user]
	s.agentMu.Unlock()
	if ua != nil {
		return ua, nil
	}
	ua = new(userAgent)
	if err := s.cluster.InitAgent(&ua.a, user); err != nil {
		return nil, err
	}
	s.agentMu.Lock()
	if first := s.agents[user]; first != nil {
		ua = first
	} else {
		s.agents[ua.a.User()] = ua // keyed by the directory's strings, as the agent is named
	}
	s.agentMu.Unlock()
	return ua, nil
}

// answerLast is the reader's own answer to input it cannot queue (an
// oversized frame, a bad CRC, a malformed payload), so the peer learns why the
// connection drops. It is queued like a request, behind every request read
// before it, and the reader hangs up only once it is written — the item is the
// last of its batch, and the batch end closes done after the flush: every
// answer owed goes out first, and this one is the last frame the connection
// sends.
func answerLast(q *WorkQueue, st *connState, tag uint32, resp Response) {
	done := make(chan struct{})
	if q.Enqueue(func() {
		st.respond(binOpJSON, tag, resp)
		st.flushed = done
	}) {
		<-done
	}
}

// dispatch runs one request.
func (s *Server) dispatch(req Request, st *connState) Response {
	switch req.Op {
	case "register":
		return s.opRegister(req)
	case "submit":
		return s.opSubmit(req)
	case "tbatch":
		return s.opTBatch(req, st)
	case "query":
		return s.opQuery(req)
	case "checkmail":
		return s.opCheckMail(req)
	case "getmail":
		return s.opGetMail(req)
	case "status":
		return s.opStatus()
	case "crash", "recover":
		return s.opAvailability(req)
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func fail(format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}

// failErr reports a failure whose cause may map onto the mailerr taxonomy;
// the code rides along so the client can rebuild a typed error.
func failErr(prefix string, err error) Response {
	return Response{Error: fmt.Sprintf("%s: %v", prefix, err), Code: mailerr.Code(err)}
}

func (s *Server) opRegister(req Request) Response {
	user, err := names.Parse(req.User)
	if err != nil {
		return fail("user: %v", err)
	}
	servers := req.Servers
	if len(servers) == 0 {
		// A registration without an explicit list is a placement decision:
		// the cluster's policy makes it when one is configured; otherwise
		// fall back to the historical default (all servers, registration
		// order).
		if placed := s.cluster.PlaceUser(user); len(placed) > 0 {
			servers = placed
		} else {
			servers = s.names
		}
	}
	for _, n := range servers {
		if _, ok := s.cluster.Server(n); !ok {
			return fail("unknown server %q", n)
		}
	}
	s.cluster.Directory().SetAuthority(user, servers)
	return Response{OK: true}
}

func (s *Server) opSubmit(req Request) Response {
	from, err := names.Parse(req.From)
	if err != nil {
		return fail("from: %v", err)
	}
	if req.to == nil { // not parsed on the reader: a recipient is no name
		req.to = make([]names.Name, len(req.To))
		if err := parseNames(req.to, req.To); err != nil {
			return fail("%v", err)
		}
	}
	if len(req.to) == 0 {
		return fail("no recipients")
	}
	id, err := s.cluster.Submit(from, req.to, req.Subject, req.Body)
	if err != nil {
		return failErr("submit", err)
	}
	return Response{OK: true, id: id}
}

// opTBatch submits a batch of messages sharing one sender in a single
// protocol round, as one grouped deposit (livenet.Cluster.SubmitBatch). Item
// failures are partial results: IDs aligns with Msgs, and Failed carries
// index, message and taxonomy code of each item that missed a recipient,
// which keeps its ID if it reached any.
func (s *Server) opTBatch(req Request, st *connState) Response {
	from, err := names.Parse(req.From)
	if err != nil {
		return fail("from: %v", err)
	}
	if len(req.Msgs) == 0 {
		return fail("empty batch")
	}
	n := 0
	for _, m := range req.Msgs {
		n += len(m.To)
	}
	// Every recipient of the frame in one array: the cluster keeps each
	// message's piece of it as the message's recipient list.
	to := make([]names.Name, n)
	subs := st.subs[:0]
	for _, m := range req.Msgs {
		sub := livenet.Submission{To: to[:len(m.To):len(m.To)], Subject: m.Subject, Body: m.Body}
		to = to[len(m.To):]
		if sub.Err = parseNames(sub.To, m.To); sub.Err == nil && len(sub.To) == 0 {
			sub.Err = errors.New("no recipients")
		}
		subs = append(subs, sub)
	}
	s.cluster.SubmitBatch(context.Background(), from, subs)
	ids := make([]mail.MessageID, len(subs))
	var failed []BatchFailure
	for i, sub := range subs {
		if sub.Err == nil || sub.Accepted > 0 {
			ids[i] = sub.ID
		}
		if sub.Err != nil {
			failed = append(failed, BatchFailure{Index: i, Error: sub.Err.Error(), Code: mailerr.Code(sub.Err)})
		}
	}
	clear(subs) // the scratch pins no frame
	st.subs = subs[:0]
	return Response{OK: true, ids: ids, Failed: failed}
}

// parseNames parses raw into dst, which has room for len(raw) names.
func parseNames(dst []names.Name, raw []string) error {
	for i, r := range raw {
		n, err := names.Parse(r)
		if err != nil {
			return fmt.Errorf("to %q: %w", r, err)
		}
		dst[i] = n
	}
	return nil
}

// opQuery serves the first-class Query API over the wire: a canonical
// attr.Query text ("content=budget") fans out across the cluster's stores,
// probing each server's live term sketch first and searching only servers
// the sketch cannot prove empty.
//
// Only fully content-equality queries are servable here: profile predicates
// need the directory's profile store, which lives with the broadcast fabric
// (internal/loadgen), not behind the wire — and a silently dropped conjunct
// would widen the match set, the one direction a query must never err in.
func (s *Server) opQuery(req Request) Response {
	if !s.termIndex {
		return fail("query requires the term index; start the server with it enabled")
	}
	q, err := attr.ParseQuery(req.Query)
	if err != nil {
		return fail("query: %v", err)
	}
	plan := attr.PlanQuery(q)
	if plan.Route != attr.RoutePruned || len(plan.Terms) != len(q.Predicates) {
		return fail("query %q: only exact-match content predicates are served over the wire", req.Query)
	}
	stats := QueryStats{Servers: len(s.names)}
	set := make(map[string]bool)
	for _, n := range s.names {
		srv, ok := s.cluster.Server(n)
		if !ok {
			stats.Unavailable++
			continue
		}
		f, _, err := srv.Sketch()
		if err != nil {
			stats.Unavailable++
			continue
		}
		if f != nil {
			pruned := false
			for _, t := range plan.Terms {
				if !f.MayContain(t) {
					pruned = true
					break
				}
			}
			if pruned {
				stats.Pruned++
				continue
			}
		}
		users, err := srv.Search(plan.Terms)
		if err != nil {
			stats.Unavailable++
			continue
		}
		stats.Visited++
		if f != nil && len(users) == 0 {
			stats.SketchFP++
		}
		for _, u := range users {
			set[u.String()] = true
		}
	}
	matches := make([]string, 0, len(set))
	for u := range set {
		matches = append(matches, u)
	}
	sort.Strings(matches)
	return Response{OK: true, Matches: matches, QueryStats: &stats}
}

// opCheckMail takes from one server's mailbox what one response can carry and
// leaves the rest there: a drained batch answered with "response too large"
// would be mail lost, and this verb has no agent to hold a remainder.
func (s *Server) opCheckMail(req Request) Response {
	user, err := names.Parse(req.User)
	if err != nil {
		return fail("user: %v", err)
	}
	srv, ok := s.cluster.Server(req.Server)
	if !ok {
		return fail("unknown server %q", req.Server)
	}
	msgs, err := srv.CheckMailFit(user, fitResponse)
	if err != nil {
		return failErr("checkmail", err)
	}
	return Response{OK: true, stored: msgs}
}

func (s *Server) opGetMail(req Request) Response {
	ua := req.agent
	if ua == nil { // a user the reader could not resolve
		user, err := names.Parse(req.User)
		if err != nil {
			return fail("user: %v", err)
		}
		if ua, err = s.agentFor(user); err != nil {
			return failErr("getmail", err)
		}
	}
	// The response takes the batch over: agents live as long as the server,
	// so one that kept its inbox would retain every body it ever returned.
	// It takes only what it can carry: the walk has emptied the mailboxes, so
	// a batch answered with "response too large" would be mail lost. The
	// prefix that fits goes out, the rest goes back to the agent's inbox and
	// leads the next getmail's batch. Neither half of a split batch may look
	// like a whole one-slot array to mail.Release: the prefix keeps its
	// capacity, and a tail of one message moves to a slot of its own.
	ua.mu.Lock()
	msgs := ua.a.TakeMail()
	if n := fitResponse(msgs); n < len(msgs) {
		rest := msgs[n:]
		if len(rest) == 1 {
			rest = []mail.Stored{rest[0]}
		}
		ua.a.GiveBack(rest)
		msgs = msgs[:n]
	}
	polls := ua.a.Polls()
	last := ua.a.LastCheckingTime().UnixNano()
	ua.mu.Unlock()
	return Response{OK: true, stored: msgs, Polls: polls, LastChecking: last}
}

// fitResponse reports how many leading messages of a retrieved batch one
// getmail or checkmail response can carry within MaxLine: their encoded size,
// bounded from above. It is never 0 for a non-empty batch: a message that
// cannot be carried alone goes out alone and is refused by the encoder, as it
// always was, and takes nothing with it.
func fitResponse(msgs []mail.Stored) int {
	// The frame around the messages — header, op, tag, ok byte, count, polls,
	// last-checking time and CRC — is under 40 bytes; 128 leaves a margin.
	size := 128
	for i := range msgs {
		m := &msgs[i]
		// One length byte and at most 42 of "m<int64>-<uint64>", then three
		// strings behind uvarint lengths of at most 3 bytes.
		size += 43 + 3*3 + m.From.TextLen() + len(m.Subject) + len(m.Body)
		if size > MaxLine {
			return max(i, 1)
		}
	}
	return len(msgs)
}

func (s *Server) opStatus() Response {
	var rows []ServerStatus
	for _, n := range s.names {
		srv, ok := s.cluster.Server(n)
		if !ok {
			continue
		}
		rows = append(rows, ServerStatus{Name: n, Up: srv.Up(), Deposits: srv.Deposits()})
	}
	snap := s.cluster.Snapshot()
	// The process's heap and GC cycles, in the snapshot's copy of the gauges
	// (never nil: the cluster sets spool_depth) and not in the registry.
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	for i, gauge := range [...]string{"go_heap_objects_bytes", "go_gc_cycles"} {
		if v := samples[i].Value; v.Kind() == metrics.KindUint64 {
			snap.Gauges[gauge] = int64(v.Uint64())
		}
	}
	return Response{OK: true, Status: &StatusSnapshot{
		Version:    snap.Version,
		Servers:    rows,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}}
}

func (s *Server) opAvailability(req Request) Response {
	srv, ok := s.cluster.Server(req.Server)
	if !ok {
		return fail("unknown server %q", req.Server)
	}
	if req.Op == "crash" {
		srv.Crash()
	} else {
		srv.Recover()
	}
	return Response{OK: true}
}
