// Package wire exposes a live mail cluster (internal/livenet) over TCP. It is
// the deployable surface of the reproduction: the same authority-list and
// GetMail semantics the paper defines, reachable from real processes.
//
// There is one protocol in two framings. A connection starts on text: one
// JSON object per line in each direction. Requests carry an "op" plus
// op-specific fields; responses carry "ok", an optional "error", and
// op-specific results. Operations:
//
//	hello     {binary}                     → {ok, binary}       (framing switch)
//	register  {user, servers[]}            → {ok}
//	submit    {from, to[], subject, body}  → {ok, id}
//	tbatch    {from, msgs[]}               → {ok, ids[], failed[]}  (batched submit)
//	checkmail {user, server}               → {ok, messages[]}
//	getmail   {user}                       → {ok, messages[], polls, last_checking}
//	query     {query}                      → {ok, matches[], query_stats}  (content search)
//	status    {}                           → {ok, status}       (versioned observability snapshot)
//	crash     {server} / recover {server}  → {ok}               (operations testing hook)
//
// Failed responses carry an optional machine-readable "code" drawn from the
// mailerr taxonomy (unknown_user, server_down, oversized, timeout); clients
// reconstruct typed errors from it so errors.Is works across the TCP hop.
//
// A hello carrying {"binary": true} switches both directions to
// length-prefixed CRC-checked frames (see binframe.go), starting with the
// first request after the (text) hello response; the switch is sticky for the
// connection's lifetime. Any other hello is answered ok and changes nothing,
// so a peer that says hello out of habit stays on text. Every verb is served
// on both framings. Binary frames carry a client-assigned tag, which is what
// allows pipelining (Client.Pipeline): up to MaxInflight tagged requests in
// flight per connection.
//
// Server side, connections do not get a handler goroutine each. A reader
// goroutine per connection decodes requests and enqueues them on a
// per-connection FIFO queue drained by a bounded worker pool
// (internal/server.WorkPool, size ServerConfig.WireWorkers), preserving
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
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
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
	pool       *server.WorkPool
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
	cluster := livenet.NewClusterWith(cfg.Cluster)
	for _, n := range serverNames {
		if _, err := cluster.AddServer(n); err != nil {
			cluster.Close()
			return nil, err
		}
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
		pool:       server.NewWorkPool(cfg.WireWorkers),
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

// connState is one connection's framing state plus its write half. binary
// and flushed are touched only by the worker holding the connection's queue;
// the reader observes them through the completion channel it waits on
// (enqueueAndWait), so no extra lock is needed for them.
//
// respond appends each response to out; the buffer goes to the socket in one
// write at the queue's batch end (Run) and early past outFlushSize — no
// timer: a lone request is a batch of one (DESIGN §10). out is borrowed from
// frameBufPool while it holds something. wmu guards it: the reader's last
// flush, as it hangs up, races a worker still holding a batch.
type connState struct {
	srv     *Server
	conn    net.Conn
	binary  bool
	flushed chan struct{} // closed, after the flush, by the batch end behind an item the reader waits on

	wmu sync.Mutex
	out *[]byte
}

// respond appends one response, in the framing the request arrived in, to the
// connection's output buffer.
func (st *connState) respond(bin bool, op byte, tag uint32, resp Response) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.out == nil {
		st.out = getFrameBuf()
	}
	buf := *st.out
	if !bin || op == binOpJSON { // JSON has no stored form, and IDs are strings there
		if resp.stored != nil {
			resp.Messages = wireMessages(resp.stored)
		}
		if !resp.id.IsZero() {
			resp.ID = resp.id.String()
		}
	}
	if bin {
		var err error
		if buf, err = AppendBinaryResponse(buf, op, tag, resp); err != nil {
			buf, _ = AppendBinaryResponse(buf, op, tag, Response{Error: "response too large", Code: mailerr.Code(err)})
		}
	} else {
		line, err := EncodeResponse(resp)
		if err != nil {
			line, _ = EncodeResponse(Response{Error: "response too large", Code: mailerr.Code(err)})
		}
		buf = append(buf, line...)
	}
	// Encoded, or refused as too large: either way nothing reads the batch
	// again, and its strings have been copied into buf or into Messages.
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
// responses the batch produced. An item the reader waits on — a hello, or its
// own error answer — is always the last of its batch, so the flush here is
// also what puts that answer on the wire before the reader moves on.
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
	bin bool
	op  byte
}

var workPool = sync.Pool{New: func() any { return new(work) }}

func (w *work) Run() {
	native := w.bin && w.op != binOpJSON
	w.st.respond(w.bin, w.op, w.tag, w.st.srv.dispatch(w.req, w.st, native))
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

// handle is one connection's reader loop: decode a request (text line or
// binary frame, per the connection's current framing), enqueue it on the
// connection's work queue, repeat. Execution and response writes happen on
// the worker pool; a full queue blocks this loop, which stops reading the
// socket — backpressure via the peer's TCP window.
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
	for {
		var ok bool
		if st.binary {
			ok = s.serveBinaryFrame(cr, framep, q, st)
		} else {
			ok = s.serveTextLine(cr, q, st)
		}
		if !ok {
			return
		}
	}
}

func (s *Server) serveTextLine(cr *connReader, q *server.WorkQueue, st *connState) bool {
	line, err := cr.readLine()
	if err != nil {
		// A line past MaxLine cannot be consumed; tell the client why
		// instead of silently hanging up on them.
		if errors.Is(err, ErrLineTooLong) {
			answerLast(q, st, false, 0, Response{
				Error: fmt.Sprintf("request line exceeds %d bytes", MaxLine),
				Code:  mailerr.CodeOversized,
			})
		}
		return false
	}
	start := time.Now()
	req, derr := DecodeRequest(line)
	s.decodeLat.Observe(float64(time.Since(start)))
	if derr != nil {
		resp := Response{Error: fmt.Sprintf("bad request: %v", derr), Code: mailerr.Code(derr)}
		return q.Enqueue(func() { st.respond(false, 0, 0, resp) })
	}
	return s.enqueue(q, st, req, 0, false, binOpJSON)
}

func (s *Server) serveBinaryFrame(cr *connReader, framep *[]byte, q *server.WorkQueue, st *connState) bool {
	payload, err := cr.readFrame(framep)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameCorrupt) {
			answerLast(q, st, true, 0, Response{Error: err.Error(), Code: mailerr.Code(err)})
		}
		return false
	}
	return s.servePayload(payload, q, st)
}

// servePayload decodes one checksummed frame payload and queues the request.
func (s *Server) servePayload(payload []byte, q *server.WorkQueue, st *connState) bool {
	start := time.Now()
	req, tag, derr := s.decodeFrame(payload)
	s.decodeLat.Observe(float64(time.Since(start)))
	if derr != nil {
		// The frame checksummed clean but the payload is malformed: the
		// peer's codec cannot be trusted, so answer and drop the connection.
		answerLast(q, st, true, tag, Response{Error: derr.Error(), Code: mailerr.Code(derr)})
		return false
	}
	return s.enqueue(q, st, req, tag, true, payload[0])
}

// decodeFrame is DecodeBinaryRequest as a connection's reader runs it. A
// native getmail — what a poll loop sends, nearly always to find nothing — is
// bound to its user's agent here, from the frame's bytes: no string is made of
// the name, and the worker neither parses it nor looks it up. A name bind
// cannot resolve is no error yet: the request goes on by name, and opGetMail
// answers in its own words when its turn comes. Bytes behind the name are
// ignored, as DecodeBinaryRequest ignores them.
func (s *Server) decodeFrame(payload []byte) (Request, uint32, error) {
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
// oversized line, a bad CRC, a malformed payload), so the peer learns why the
// connection drops. It is queued like a request, behind every request read
// before it, and the reader hangs up only once it is written: every answer
// owed goes out first, and this one is the last frame the connection sends.
func answerLast(q *server.WorkQueue, st *connState, bin bool, tag uint32, resp Response) {
	enqueueAndWait(q, st, func() { st.respond(bin, binOpJSON, tag, resp) })
}

// enqueue hands one decoded request, from a frame with op byte op, to the
// connection's work queue as a pooled work item.
func (s *Server) enqueue(q *server.WorkQueue, st *connState, req Request, tag uint32, bin bool, op byte) bool {
	if req.Op == "hello" {
		return s.enqueueHello(q, st, req, tag, bin)
	}
	w := workPool.Get().(*work)
	w.st, w.req, w.tag, w.bin, w.op = st, req, tag, bin, op
	return q.EnqueueRunner(w)
}

// enqueueHello is enqueue for the handshake. The reader must not read the
// next bytes until the handshake response is out and the framing switch (if
// granted) applied, so it waits for the hello's batch end.
// A function of its own: the closure makes its req a heap variable.
func (s *Server) enqueueHello(q *server.WorkQueue, st *connState, req Request, tag uint32, bin bool) bool {
	return enqueueAndWait(q, st, func() { st.respond(bin, binOpJSON, tag, s.opHello(req, st)) })
}

// enqueueAndWait queues one answer the reader must see written before it goes
// on, and waits for the batch end behind it. The item runs after every earlier
// item on the queue, so its answer follows theirs.
func enqueueAndWait(q *server.WorkQueue, st *connState, answer func()) bool {
	done := make(chan struct{})
	ok := q.Enqueue(func() {
		answer()
		st.flushed = done
	})
	if ok {
		<-done
	}
	return ok
}

// dispatch runs one request. native says the response will go out in the
// op's own binary encoding and not as JSON (a text line, or a binOpJSON
// frame), which is what decides how much mail fits in it.
func (s *Server) dispatch(req Request, st *connState, native bool) Response {
	switch req.Op {
	case "hello":
		return s.opHello(req, st)
	case "register":
		return s.opRegister(req)
	case "submit":
		return s.opSubmit(req)
	case "tbatch":
		return s.opTBatch(req)
	case "query":
		return s.opQuery(req)
	case "checkmail":
		return s.opCheckMail(req, native)
	case "getmail":
		return s.opGetMail(req, native)
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

// opHello switches the connection to binary framing when the client asks
// (sticky once on: a later hello cannot switch back — the peer could never
// know which framing the in-flight responses use) and reports the framing the
// connection speaks from here on.
func (s *Server) opHello(req Request, st *connState) Response {
	if req.Binary {
		st.binary = true
	}
	return Response{OK: true, Binary: st.binary}
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
	to := make([]names.Name, 0, len(req.To))
	for _, raw := range req.To {
		n, err := names.Parse(raw)
		if err != nil {
			return fail("to %q: %v", raw, err)
		}
		to = append(to, n)
	}
	if len(to) == 0 {
		return fail("no recipients")
	}
	id, err := s.cluster.Submit(from, to, req.Subject, req.Body)
	if err != nil {
		return failErr("submit", err)
	}
	return Response{OK: true, id: id}
}

// opTBatch submits a batch of messages sharing one sender in a single
// protocol round — the wire face of the relay-batching fabric. Item failures
// are partial results, not request failures: IDs aligns with Msgs ("" where
// an item failed) and Failed carries index, message, and taxonomy code so
// the client can retry-split exactly the failed items.
func (s *Server) opTBatch(req Request) Response {
	from, err := names.Parse(req.From)
	if err != nil {
		return fail("from: %v", err)
	}
	if len(req.Msgs) == 0 {
		return fail("empty batch")
	}
	ids := make([]string, len(req.Msgs))
	var failed []BatchFailure
	for i, m := range req.Msgs {
		to, err := parseNames(m.To)
		if err == nil && len(to) == 0 {
			err = errors.New("no recipients")
		}
		if err == nil {
			var id mail.MessageID
			id, err = s.cluster.Submit(from, to, m.Subject, m.Body)
			if err == nil {
				ids[i] = id.String()
				continue
			}
		}
		failed = append(failed, BatchFailure{Index: i, Error: err.Error(), Code: mailerr.Code(err)})
	}
	return Response{OK: true, IDs: ids, Failed: failed}
}

func parseNames(raw []string) ([]names.Name, error) {
	out := make([]names.Name, 0, len(raw))
	for _, r := range raw {
		n, err := names.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("to %q: %w", r, err)
		}
		out = append(out, n)
	}
	return out, nil
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
func (s *Server) opCheckMail(req Request, native bool) Response {
	user, err := names.Parse(req.User)
	if err != nil {
		return fail("user: %v", err)
	}
	srv, ok := s.cluster.Server(req.Server)
	if !ok {
		return fail("unknown server %q", req.Server)
	}
	msgs, err := srv.CheckMailFit(user, func(buffered []mail.Stored) int { return fitResponse(buffered, native) })
	if err != nil {
		return failErr("checkmail", err)
	}
	return Response{OK: true, stored: msgs}
}

func (s *Server) opGetMail(req Request, native bool) Response {
	ua := req.agent
	if ua == nil { // a text line, a JSON frame, or a user the reader could not resolve
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
	if n := fitResponse(msgs, native); n < len(msgs) {
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
// getmail response can carry within MaxLine: their encoded size, bounded
// from above, in the binary encoding (native) or as JSON. It is never 0 for a
// non-empty batch: a message that cannot be carried alone goes out alone and
// is refused by the encoder, as it always was, and takes nothing with it.
func fitResponse(msgs []mail.Stored, native bool) int {
	// The other fields of the largest response and the frame around it:
	// {"ok":true,"messages":[…],"polls":N,"last_checking":N} is under 100
	// bytes, the binary header, counts and CRC under 40.
	size := 128
	for i := range msgs {
		m := &msgs[i]
		if native {
			// One length byte and at most 42 of "m<int64>-<uint64>", then
			// three strings behind uvarint lengths of at most 3 bytes.
			size += 43 + 3*3 + m.From.TextLen() + len(m.Subject) + len(m.Body)
		} else {
			// {"id":"…","from":"r.h.u","subject":"…","body":"…"}, and a comma:
			// 43 bytes of punctuation, an ID of at most 42, the name's two dots.
			size += 42 + 43 + 2 + jsonTextLen(m.From.Region) + jsonTextLen(m.From.Host) + jsonTextLen(m.From.User) +
				jsonTextLen(m.Subject) + jsonTextLen(m.Body)
		}
		if size > MaxLine {
			return max(i, 1)
		}
	}
	return len(msgs)
}

// jsonTextLen bounds from above the bytes encoding/json writes between the
// quotes for s: 2 for a quote, a backslash, \n, \r or \t, 6 for everything
// else it escapes (other controls, <, >, &, U+2028/9, each byte of invalid
// UTF-8), and the bytes themselves otherwise.
func jsonTextLen(s string) int {
	n := 0
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t':
			n += 2
			i++
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			n += 6
			i++
		case c < utf8.RuneSelf:
			n++
			i++
		default:
			r, w := utf8.DecodeRuneInString(s[i:])
			if (r == utf8.RuneError && w == 1) || r == '\u2028' || r == '\u2029' {
				n += 6
			} else {
				n += w
			}
			i += w
		}
	}
	return n
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

func wireMessages(msgs []mail.Stored) []Message {
	out := make([]Message, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, Message{
			ID: m.ID.String(), From: m.From.String(),
			Subject: m.Subject, Body: m.Body,
		})
	}
	return out
}
