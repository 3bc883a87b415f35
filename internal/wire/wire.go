// Package wire exposes a live mail cluster (internal/livenet) over TCP with
// a newline-delimited JSON protocol and, since protocol version 3, an
// optional negotiated binary framing. It is the deployable surface of the
// reproduction: the same authority-list and GetMail semantics the paper
// defines, reachable from real processes.
//
// Text protocol: one JSON object per line in each direction. Requests carry
// an "op" plus op-specific fields; responses carry "ok", an optional
// "error", and op-specific results. Operations:
//
//	hello     {version, binary}            → {ok, version, binary}  (protocol negotiation)
//	register  {user, servers[]}            → {ok}
//	submit    {from, to[], subject, body}  → {ok, id}
//	tbatch    {from, msgs[]}               → {ok, ids[], failed[]}  (v2: batched submit)
//	checkmail {user, server}               → {ok, messages[]}
//	getmail   {user}                       → {ok, messages[], polls, last_checking}
//	status    {}                           → {ok, status}       (versioned observability snapshot)
//	crash     {server} / recover {server}  → {ok}               (operations testing hook)
//
// Failed responses carry an optional machine-readable "code" drawn from the
// mailerr taxonomy (unknown_user, server_down, oversized, timeout); clients
// reconstruct typed errors from it so errors.Is works across the TCP hop.
//
// The tbatch verb is version-gated: a connection must negotiate protocol
// version ≥ 2 with a hello line first. Clients that skip the handshake (or
// talk to an old server that rejects it) fall back to single submits.
//
// Version 3 adds the binary framing (see binframe.go): a hello carrying
// {"binary": true} on a connection whose negotiated version is ≥ 3 switches
// both directions to length-prefixed CRC-checked frames, starting with the
// first request after the (text) hello response. Binary frames carry a
// client-assigned tag, which is what allows pipelining (Client.Pipeline):
// up to MaxInflight tagged requests in flight per connection. The switch is
// explicit opt-in — negotiating version 3 alone never changes the framing —
// and sticky for the connection's lifetime. v1/v2 peers interoperate
// unchanged: the negotiated version is min(client, server) and the binary
// field is ignored by servers that predate it.
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
// and the machine-readable exports read the same registry. Snapshot v2 adds
// the wire-path instruments (wire_bytes_in/wire_bytes_out, lat_wire_decode).
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
)

// MaxLine bounds a single protocol line or binary frame payload (1 MiB),
// protecting the server from unbounded memory per connection.
const MaxLine = 1 << 20

// ProtocolVersion is the highest protocol version this package speaks.
// Version 1 is the original single-transfer protocol; version 2 adds the
// tbatch verb (batched submit); version 3 adds the negotiated binary framing
// with tagged (pipelinable) frames and getmail poll accounting. A connection
// speaks version 1 until a hello exchange negotiates min(client, server).
const ProtocolVersion = 3

// Version floors for the gated features. Gates compare against these, never
// against ProtocolVersion, so bumping the ceiling cannot re-gate an old verb.
const (
	protoTBatch = 2 // tbatch verb
	protoBinary = 3 // binary framing, tags, getmail polls
	protoQuery  = 3 // query verb (sketch-pruned content search)
)

// writeStallTimeout bounds one flush of a connection's buffered responses. A
// peer that stops reading cannot wedge a pool worker forever: the write times
// out, the connection is closed, and the worker moves on.
const writeStallTimeout = 30 * time.Second

// outFlushSize is how much buffered output makes a worker flush before its
// batch ends. Half of what putFrameBuf still pools: flushing only at the
// pooling limit would grow the buffer past it, and throw it away, every time.
const outFlushSize = connReaderBufSize / 2

// Request is the client→server frame.
type Request struct {
	Op      string   `json:"op"`
	User    string   `json:"user,omitempty"`
	Servers []string `json:"servers,omitempty"`
	Server  string   `json:"server,omitempty"`
	From    string   `json:"from,omitempty"`
	To      []string `json:"to,omitempty"`
	Subject string   `json:"subject,omitempty"`
	Body    string   `json:"body,omitempty"`
	// Version is the client's protocol version on hello requests.
	Version int `json:"version,omitempty"`
	// Binary, on hello requests, asks to switch the connection to the v3
	// binary framing. Granted only when the negotiated version is ≥ 3;
	// ignored (and invisible) to older servers.
	Binary bool `json:"binary,omitempty"`
	// Msgs carries the batch on tbatch requests (protocol version ≥ 2).
	Msgs []BatchMsg `json:"msgs,omitempty"`
	// Query carries an attr.Query in its canonical text form on query
	// requests (protocol version ≥ 3), e.g. "content=budget".
	Query string `json:"query,omitempty"`
}

// BatchMsg is one message of a tbatch request. The whole batch shares the
// request's From.
type BatchMsg struct {
	To      []string `json:"to"`
	Subject string   `json:"subject,omitempty"`
	Body    string   `json:"body,omitempty"`
}

// BatchFailure reports one tbatch item the server could not submit. Index
// points into the request's Msgs; Code is the mailerr taxonomy code when the
// failure maps onto it.
type BatchFailure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Message is a mail message on the wire.
type Message struct {
	ID      string `json:"id"`
	From    string `json:"from"`
	Subject string `json:"subject"`
	Body    string `json:"body"`
}

// ServerStatus is one row of a status response.
type ServerStatus struct {
	Name     string `json:"name"`
	Up       bool   `json:"up"`
	Deposits int64  `json:"deposits"`
}

// StatusSnapshot is the versioned result of the status op: per-server rows
// plus the cluster's full instrument set. Version follows obs.SnapshotVersion
// so consumers can key rendering decisions when the schema evolves.
type StatusSnapshot struct {
	Version int            `json:"version"`
	Servers []ServerStatus `json:"servers"`
	// Counters holds the cluster's flat counters: the fault/retry/spool set
	// (injected_drops, deposit_retries, deposit_failovers, submit_spooled,
	// spool_redelivered, spool_retries, ...), the wire-path byte counters
	// (wire_bytes_in, wire_bytes_out — snapshot v2), plus the per-server
	// "<name>.deposits"/"<name>.checks" instruments.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds point-in-time levels, e.g. "spool_depth".
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds the tracer-fed per-stage latency distributions
	// ("lat_submit", "lat_deposit", "lat_retrieve", "lat_e2e", and — snapshot
	// v2 — the request-decode cost "lat_wire_decode") with precomputed
	// p50/p95/p99, in nanoseconds.
	Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// Response is the server→client frame.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable mailerr taxonomy code for Error, when
	// the failure maps onto one (unknown_user, server_down, oversized,
	// timeout). Clients rebuild typed errors from it via mailerr.FromCode.
	Code     string    `json:"code,omitempty"`
	ID       string    `json:"id,omitempty"`
	Messages []Message `json:"messages,omitempty"`
	// Version is the negotiated protocol version on hello responses.
	Version int `json:"version,omitempty"`
	// Binary, on hello responses, confirms the connection switches to the
	// v3 binary framing after this response.
	Binary bool `json:"binary,omitempty"`
	// stored, on the server, is a getmail/checkmail result still in the form
	// the mailbox gave it up in; binary responses are encoded straight from
	// it (appendStored) and text ones convert it to Messages. Read only: the
	// slice may be one a mailbox handed over (livenet.Agent.TakeMail).
	stored []mail.Stored
	// Polls is the user's cumulative server-poll count after a getmail walk
	// (v3 servers); LastChecking is the walk's LastCheckingTime in UnixNano.
	// Together they let remote load generators run the paper's §3.1.2c poll
	// audits without in-process agent access.
	Polls        int   `json:"polls,omitempty"`
	LastChecking int64 `json:"last_checking,omitempty"`
	// IDs holds the per-item message IDs of a tbatch response, aligned with
	// the request's Msgs ("" for failed items).
	IDs []string `json:"ids,omitempty"`
	// Failed lists the tbatch items that were not submitted.
	Failed []BatchFailure `json:"failed,omitempty"`
	// Status carries the versioned observability snapshot on status
	// responses.
	Status *StatusSnapshot `json:"status,omitempty"`
	// Matches lists the users holding a match on query responses, sorted and
	// deduplicated across servers; QueryStats accounts the fan-out.
	Matches    []string    `json:"matches,omitempty"`
	QueryStats *QueryStats `json:"query_stats,omitempty"`
}

// QueryStats accounts one wire query's fan-out over the cluster: every
// server was either searched (Visited), skipped on a sketch proof of absence
// (Pruned), or down (Unavailable) — so Visited+Pruned+Unavailable = Servers,
// and a client can tell a complete result from a partial one.
type QueryStats struct {
	Servers     int `json:"servers"`
	Visited     int `json:"visited"`
	Pruned      int `json:"pruned,omitempty"`
	Unavailable int `json:"unavailable,omitempty"`
	// SketchFP counts visited servers whose sketch passed the probe but whose
	// search then returned nothing: Bloom false positives.
	SketchFP int `json:"sketch_fp,omitempty"`
}

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
	// QueueDepth caps one connection's decoded-but-unexecuted requests
	// (0 → 64). A full queue blocks the connection's reader — backpressure,
	// not disconnection.
	QueueDepth int
	// MaxProtocol caps the protocol version the server negotiates
	// (0 → ProtocolVersion). The compatibility tests use it to stand up
	// yesterday's servers.
	MaxProtocol int
}

// Server serves the wire protocol over a listener, backed by a live
// cluster. Create with NewServer; stop with Close.
type Server struct {
	cluster    *livenet.Cluster
	names      []string // server names, registration order
	pool       *server.WorkPool
	queueDepth int
	maxProto   int
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
// single actor livenet.Agent requires, whichever connections poll for it.
type userAgent struct {
	mu sync.Mutex
	a  *livenet.Agent
}

// NewServer builds a memory-backed cluster with the given server names and
// starts accepting connections on addr (e.g. "127.0.0.1:0"). The returned
// server owns the cluster.
func NewServer(addr string, serverNames []string) (*Server, error) {
	return NewServerWith(addr, serverNames, ServerConfig{})
}

// NewServerCluster is NewServer with an explicit cluster configuration —
// the hook maild uses to run durable stores (ClusterConfig.DataDir) behind
// the wire protocol.
func NewServerCluster(addr string, serverNames []string, cfg livenet.ClusterConfig) (*Server, error) {
	return NewServerWith(addr, serverNames, ServerConfig{Cluster: cfg})
}

// NewServerWith is NewServer with the full server configuration: cluster,
// worker-pool size, queue depth, and protocol ceiling.
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
	maxProto := cfg.MaxProtocol
	if maxProto <= 0 || maxProto > ProtocolVersion {
		maxProto = ProtocolVersion
	}
	reg := cluster.Obs()
	s := &Server{
		cluster:    cluster,
		names:      append([]string(nil), serverNames...),
		pool:       server.NewWorkPool(cfg.WireWorkers),
		queueDepth: cfg.QueueDepth,
		maxProto:   maxProto,
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

// connState is one connection's negotiated protocol state plus its write
// half. ver, binary and helloDone are touched only by the worker holding the
// connection's queue; the reader observes the framing switch through the
// hello's completion channel, so no extra lock is needed for them.
//
// respond appends each response to out; the buffer goes to the socket in one
// write at the queue's batch end (Run), early past outFlushSize, and at once
// behind a reader-side error answer — no timer: a lone request is a batch of
// one (DESIGN §10). out is borrowed from frameBufPool while it holds
// something. wmu guards it: the reader's error answers race the worker's.
type connState struct {
	srv       *Server
	conn      net.Conn
	ver       int
	binary    bool
	helloDone chan struct{} // closed, after the flush, by the batch end that follows a hello

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
	if bin {
		var err error
		if buf, err = AppendBinaryResponse(buf, op, tag, resp); err != nil {
			buf, _ = AppendBinaryResponse(buf, op, tag, Response{Error: "response too large", Code: mailerr.Code(err)})
		}
	} else {
		if resp.stored != nil {
			resp.Messages = wireMessages(resp.stored)
		}
		line, err := EncodeResponse(resp)
		if err != nil {
			line, _ = EncodeResponse(Response{Error: "response too large", Code: mailerr.Code(err)})
		}
		buf = append(buf, line...)
	}
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
// responses the batch produced. A hello is always the last item of its batch
// (the reader waits for it), so the flush here is also what puts the
// handshake response on the wire before the reader moves on.
func (st *connState) Run() {
	st.flush()
	if st.helloDone != nil {
		close(st.helloDone)
		st.helloDone = nil
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
	w.st.respond(w.bin, w.op, w.tag, w.st.srv.dispatch(w.req, w.st))
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
// binary frame, per the connection's negotiated framing), enqueue it on the
// connection's work queue, repeat. Execution and response writes happen on
// the worker pool; a full queue blocks this loop, which stops reading the
// socket — backpressure via the peer's TCP window.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	st := &connState{srv: s, conn: conn, ver: 1}
	q := s.pool.NewQueue(s.queueDepth, st)
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
			st.answerAndFlush(false, 0, Response{
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
	return s.enqueue(q, st, req, 0, false)
}

func (s *Server) serveBinaryFrame(cr *connReader, framep *[]byte, q *server.WorkQueue, st *connState) bool {
	payload, err := cr.readFrame(framep)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameCorrupt) {
			st.answerAndFlush(true, 0, Response{Error: err.Error(), Code: mailerr.Code(err)})
		}
		return false
	}
	start := time.Now()
	req, tag, derr := DecodeBinaryRequest(payload)
	s.decodeLat.Observe(float64(time.Since(start)))
	if derr != nil {
		// The frame checksummed clean but the payload is malformed: the
		// peer's codec cannot be trusted, so answer and drop the connection.
		st.answerAndFlush(true, tag, Response{Error: derr.Error(), Code: mailerr.Code(derr)})
		return false
	}
	return s.enqueue(q, st, req, tag, true)
}

// answerAndFlush is the reader's own answer to input it cannot queue (an
// oversized line, a bad CRC, a malformed payload), sent just before it drops
// the connection: appended behind whatever the worker has buffered so far and
// written at once, so the peer learns why.
func (st *connState) answerAndFlush(bin bool, tag uint32, resp Response) {
	st.respond(bin, binOpJSON, tag, resp)
	st.flush()
}

// enqueue hands one decoded request to the connection's work queue, as a
// pooled work item.
func (s *Server) enqueue(q *server.WorkQueue, st *connState, req Request, tag uint32, bin bool) bool {
	if req.Op == "hello" {
		return s.enqueueHello(q, st, req, tag, bin)
	}
	w := workPool.Get().(*work)
	w.st, w.req, w.tag, w.bin, w.op = st, req, tag, bin, binaryOpFor(req.Op)
	return q.EnqueueRunner(w)
}

// enqueueHello is enqueue for the handshake. The reader must not read the
// next bytes until the handshake response is out and the framing switch (if
// granted) applied, so it waits for the batch end behind the hello item —
// which also orders the switch after every earlier response on the queue.
// A function of its own: the closure makes its req a heap variable.
func (s *Server) enqueueHello(q *server.WorkQueue, st *connState, req Request, tag uint32, bin bool) bool {
	done := make(chan struct{})
	ok := q.Enqueue(func() {
		st.respond(bin, binOpJSON, tag, s.opHello(req, st))
		st.helloDone = done
	})
	if ok {
		<-done
	}
	return ok
}

func (s *Server) dispatch(req Request, st *connState) Response {
	switch req.Op {
	case "hello":
		return s.opHello(req, st)
	case "register":
		return s.opRegister(req)
	case "submit":
		return s.opSubmit(req)
	case "tbatch":
		return s.opTBatch(req, st.ver)
	case "query":
		return s.opQuery(req, st.ver)
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

// opHello negotiates the connection's protocol version to
// min(client, server) and, when the client asks and the version allows,
// switches the connection to binary framing (sticky once on: a later hello
// cannot switch back — the peer could never know which framing the
// in-flight responses use). A missing or absurd client version counts as 1,
// the pre-handshake protocol.
func (s *Server) opHello(req Request, st *connState) Response {
	v := req.Version
	if v < 1 {
		v = 1
	}
	if v > s.maxProto {
		v = s.maxProto
	}
	st.ver = v
	if req.Binary && v >= protoBinary {
		st.binary = true
	}
	return Response{OK: true, Version: v, Binary: st.binary}
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
	return Response{OK: true, ID: id.String()}
}

// opTBatch submits a batch of messages sharing one sender in a single
// protocol round — the wire face of the relay-batching fabric. Item failures
// are partial results, not request failures: IDs aligns with Msgs ("" where
// an item failed) and Failed carries index, message, and taxonomy code so
// the client can retry-split exactly the failed items.
func (s *Server) opTBatch(req Request, ver int) Response {
	if ver < protoTBatch {
		return fail("tbatch requires protocol version %d; negotiate with hello first", protoTBatch)
	}
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
// the sketch cannot prove empty. v1/v2 connections are refused the same way
// tbatch refuses them — negotiate with hello first.
//
// Only fully content-equality queries are servable here: profile predicates
// need the directory's profile store, which lives with the broadcast fabric
// (internal/loadgen), not behind the wire — and a silently dropped conjunct
// would widen the match set, the one direction a query must never err in.
func (s *Server) opQuery(req Request, ver int) Response {
	if ver < protoQuery {
		return fail("query requires protocol version %d; negotiate with hello first", protoQuery)
	}
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

func (s *Server) opCheckMail(req Request) Response {
	user, err := names.Parse(req.User)
	if err != nil {
		return fail("user: %v", err)
	}
	srv, ok := s.cluster.Server(req.Server)
	if !ok {
		return fail("unknown server %q", req.Server)
	}
	msgs, err := srv.CheckMail(user)
	if err != nil {
		return failErr("checkmail", err)
	}
	return Response{OK: true, stored: msgs}
}

func (s *Server) opGetMail(req Request) Response {
	user, err := names.Parse(req.User)
	if err != nil {
		return fail("user: %v", err)
	}
	s.agentMu.Lock()
	ua := s.agents[user]
	if ua == nil {
		agent, err := s.cluster.NewAgent(user)
		if err != nil {
			s.agentMu.Unlock()
			return failErr("getmail", err)
		}
		ua = &userAgent{a: agent}
		s.agents[user] = ua
	}
	s.agentMu.Unlock()
	// The response takes the batch over: agents live as long as the server,
	// so one that kept its inbox would retain every body it ever returned.
	ua.mu.Lock()
	msgs := ua.a.TakeMail()
	polls := ua.a.Polls()
	last := ua.a.LastCheckingTime().UnixNano()
	ua.mu.Unlock()
	return Response{OK: true, stored: msgs, Polls: polls, LastChecking: last}
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

// Options tune a Client's fault behavior and protocol ceiling.
type Options struct {
	// Timeout is the per-request deadline covering write and response read
	// (default 5s). A request against a hung or partitioned server fails
	// with a timeout error instead of blocking forever. Negative disables.
	Timeout time.Duration
	// Retries bounds how many extra attempts Do makes when a request
	// provably never reached the server — a failed dial or a failed write
	// (the protocol executes only complete newline-terminated lines or
	// CRC-complete frames, and a failed write never delivers the terminator
	// or the tail of the frame). Responses that time out after a successful
	// write are NOT retried: the request may have executed, and submit is
	// not idempotent. Default 2; negative disables.
	Retries int
	// RetryBackoff is the pause before each retry (default 50ms).
	RetryBackoff time.Duration
	// MaxVersion caps the protocol version this client offers on hello
	// (0 → ProtocolVersion). 1 disables the handshake entirely — the client
	// behaves as an original v1 peer. The compatibility tests use it to
	// stand up yesterday's clients.
	MaxVersion int
	// TextOnly keeps the connection on the newline-delimited JSON framing
	// even against a v3 server that offers binary frames.
	TextOnly bool
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxVersion == 0 || o.MaxVersion > ProtocolVersion {
		o.MaxVersion = ProtocolVersion
	}
	if o.MaxVersion < 1 {
		o.MaxVersion = 1
	}
	return o
}

// Client is a wire-protocol client. It owns one TCP connection at a time
// and transparently reconnects after a broken one. Safe for sequential use;
// guard with your own mutex for concurrent callers, or use Pipeline for
// concurrent in-flight requests on one connection.
type Client struct {
	addr string
	opts Options

	conn net.Conn
	cr   *connReader

	// version is the protocol version negotiated with the server: 0 until
	// the first operation that needs one (SubmitBatch, Pipeline, an explicit
	// Negotiate) runs the hello exchange, then min(MaxVersion, server's). An
	// old server that rejects hello pins it to 1. Negotiation survives
	// reconnects — the server's version does not change under one address.
	version int
	// binOn marks the CURRENT connection as switched to binary framing. It
	// resets on reconnect; entering binary again is an inline hello away.
	binOn bool
	// binVeto is set when a server negotiates v3 yet declines binary
	// framing — stop asking on every request.
	binVeto bool
	// tag numbers binary requests; responses echo it. Sequential Do checks
	// the echo; Pipeline uses it to match out-of-order completions.
	tag uint32
}

// Dial connects to a wire server with default Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a wire server with explicit deadline/retry
// behavior.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	d := net.Dialer{}
	if c.opts.Timeout > 0 {
		d.Timeout = c.opts.Timeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.cr = newConnReader(conn)
	c.binOn = false
	return nil
}

// drop discards a broken connection; the next Do reconnects.
func (c *Client) drop() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	if c.cr != nil {
		c.cr.release()
		c.cr = nil
	}
	c.binOn = false
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	if c.cr != nil {
		c.cr.release()
		c.cr = nil
	}
	c.binOn = false
	return err
}

// Version returns the protocol version negotiated with the server, or 0 if
// no operation has needed the handshake yet.
func (c *Client) Version() int { return c.version }

// BinaryFraming reports whether the current connection has switched to the
// v3 binary framing.
func (c *Client) BinaryFraming() bool { return c.binOn }

// Negotiate forces the lazy hello exchange now (it otherwise runs on the
// first operation that needs it) and returns the negotiated version.
func (c *Client) Negotiate(ctx context.Context) (int, error) {
	return c.negotiate(ctx)
}

// Do sends one request and reads one response, under the configured
// deadline. See DoContext.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoContext(context.Background(), req)
}

// DoContext sends one request and reads one response, honoring both the
// configured per-request deadline and the context: the connection deadline
// is the earlier of the two, and cancellation is checked before each attempt
// and during retry backoff (a context failure matches mailerr.ErrTimeout).
// Dial and write failures are retried up to Options.Retries times
// (reconnecting in between); a failure after the request was fully written
// is returned as-is, with the connection dropped so the next call starts
// fresh. A Response with ok=false is returned as an error — typed via
// mailerr.FromCode when the response carries a taxonomy code.
//
// On a connection negotiated to binary framing the request travels as one
// tagged frame; retry semantics are identical because the server executes
// only CRC-complete frames, so a short write provably never executed.
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	// Refuse oversized requests before touching the wire: the server-side
	// reader would abort the whole connection on such a line, and the
	// client's own reader has the same MaxLine cap.
	line, err := EncodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.opts.RetryBackoff):
			}
		}
		if err := ctx.Err(); err != nil {
			return Response{}, fmt.Errorf("wire: %w (%w)", mailerr.ErrTimeout, err)
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				lastErr = err
				continue
			}
		}
		_ = c.conn.SetDeadline(c.deadline(ctx))
		// A reconnect lands in text mode; re-enter binary before the request
		// when the negotiated protocol calls for it. (hello itself always
		// rides the framing the connection is currently in.)
		if !c.binOn && req.Op != "hello" && c.wantBinary() {
			if err := c.enterBinary(); err != nil {
				// The handshake is idempotent, so any failure is retryable.
				c.drop()
				lastErr = err
				continue
			}
		}
		var resp Response
		if c.binOn {
			var retry bool
			resp, err, retry = c.doBinary(req)
			if err != nil {
				if retry {
					lastErr = err
					continue
				}
				return Response{}, err
			}
		} else {
			if n, err := c.conn.Write(line); err != nil {
				c.drop()
				lastErr = err
				if n >= len(line) {
					// The terminator made it out before the error, so the
					// server may execute this request: not safe to retry.
					return Response{}, err
				}
				// The newline terminator never made it out, so the server
				// will not execute this request: safe to retry on a new
				// connection.
				continue
			}
			resp, err = c.readResponse()
			if err != nil {
				// The request may have executed server-side; surface the
				// error rather than risking a duplicate submit.
				c.drop()
				return Response{}, err
			}
		}
		_ = c.conn.SetDeadline(time.Time{})
		return respErr(resp)
	}
	return Response{}, fmt.Errorf("wire: request failed after %d attempts: %w",
		c.opts.Retries+1, lastErr)
}

// respErr turns a refused response into a typed error.
func respErr(resp Response) (Response, error) {
	if !resp.OK {
		if resp.Code != "" {
			return resp, mailerr.FromCode(resp.Code, "wire: "+resp.Error)
		}
		return resp, fmt.Errorf("wire: %s", resp.Error)
	}
	return resp, nil
}

// wantBinary reports whether requests should travel as binary frames once
// the connection is upgraded.
func (c *Client) wantBinary() bool {
	return c.version >= protoBinary && !c.opts.TextOnly && !c.binVeto
}

// enterBinary runs the inline hello that switches the current (text-mode)
// connection to binary framing. On a refusal it records the veto so later
// requests stop asking. Transport errors leave the decision open.
func (c *Client) enterBinary() error {
	hello, err := EncodeRequest(Request{Op: "hello", Version: c.opts.MaxVersion, Binary: true})
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(hello); err != nil {
		return err
	}
	resp, err := c.readResponse()
	if err != nil {
		return err
	}
	switch {
	case resp.OK && resp.Binary && resp.Version >= protoBinary:
		c.binOn = true
	default:
		c.binVeto = true
		if resp.Version >= 1 && resp.Version < c.version {
			c.version = resp.Version
		}
	}
	return nil
}

// nextTag returns a fresh tag for one binary request.
func (c *Client) nextTag() uint32 {
	c.tag++
	return c.tag
}

// doBinary runs one request/response exchange in binary framing. The third
// result reports whether a failure is provably-not-executed (safe to retry
// on a fresh connection).
func (c *Client) doBinary(req Request) (Response, error, bool) {
	tag := c.nextTag()
	bp := getFrameBuf()
	frame, err := AppendBinaryRequest((*bp)[:0], req, tag)
	if err != nil {
		putFrameBuf(bp)
		return Response{}, err, false
	}
	n, werr := c.conn.Write(frame)
	*bp = frame
	putFrameBuf(bp)
	if werr != nil {
		c.drop()
		// A short write never delivered the CRC trailer, so the server
		// cannot execute the request; a complete write may have.
		return Response{}, werr, n < len(frame)
	}
	rp := getFrameBuf()
	payload, rerr := c.cr.readFrame(rp)
	if rerr != nil {
		putFrameBuf(rp)
		c.drop()
		return Response{}, rerr, false
	}
	resp, rtag, derr := DecodeBinaryResponse(payload)
	putFrameBuf(rp)
	if derr != nil {
		c.drop()
		return Response{}, derr, false
	}
	if rtag != tag {
		c.drop()
		return Response{}, fmt.Errorf("wire: response tag %d for request tag %d", rtag, tag), false
	}
	return resp, nil, false
}

// deadline is the earlier of the per-request Options.Timeout and the
// context's own deadline; the zero time (no deadline) when neither applies.
func (c *Client) deadline(ctx context.Context) time.Time {
	var d time.Time
	if c.opts.Timeout > 0 {
		d = time.Now().Add(c.opts.Timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

func (c *Client) readResponse() (Response, error) {
	line, err := c.cr.readLine()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Response{}, errors.New("wire: connection closed")
		}
		return Response{}, err
	}
	return DecodeResponse(line)
}

// Register records a user's authority list (empty = all servers).
func (c *Client) Register(user string, servers ...string) error {
	return c.RegisterContext(context.Background(), user, servers...)
}

// RegisterContext is Register honoring a context.
func (c *Client) RegisterContext(ctx context.Context, user string, servers ...string) error {
	_, err := c.DoContext(ctx, Request{Op: "register", User: user, Servers: servers})
	return err
}

// Submit sends a message and returns its ID.
func (c *Client) Submit(from string, to []string, subject, body string) (string, error) {
	return c.SubmitContext(context.Background(), from, to, subject, body)
}

// SubmitContext is Submit honoring a context.
func (c *Client) SubmitContext(ctx context.Context, from string, to []string, subject, body string) (string, error) {
	resp, err := c.DoContext(ctx, Request{Op: "submit", From: from, To: to, Subject: subject, Body: body})
	return resp.ID, err
}

// SubmitBatch sends several messages from one sender in a single protocol
// round. See SubmitBatchContext.
func (c *Client) SubmitBatch(from string, msgs []BatchMsg) ([]string, error) {
	return c.SubmitBatchContext(context.Background(), from, msgs)
}

// SubmitBatchContext submits a batch of messages sharing one sender. On a
// version ≥ 2 connection the whole batch ships as one tbatch frame; items
// the server reports failed are retry-split into individual submits. Against
// a version-1 server (negotiated lazily via hello; old servers reject the
// handshake and pin the connection to v1) every item falls back to a single
// submit. The returned slice aligns with msgs ("" where an item ultimately
// failed); the error joins the per-item failures.
func (c *Client) SubmitBatchContext(ctx context.Context, from string, msgs []BatchMsg) ([]string, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	ver, err := c.negotiate(ctx)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(msgs))
	var errs []error
	single := func(i int) {
		id, err := c.SubmitContext(ctx, from, msgs[i].To, msgs[i].Subject, msgs[i].Body)
		if err != nil {
			errs = append(errs, fmt.Errorf("msg %d: %w", i, err))
			return
		}
		ids[i] = id
	}
	if ver < protoTBatch {
		for i := range msgs {
			single(i)
		}
		return ids, errors.Join(errs...)
	}
	resp, err := c.DoContext(ctx, Request{Op: "tbatch", From: from, Msgs: msgs})
	if err != nil {
		return nil, err
	}
	copy(ids, resp.IDs)
	for _, f := range resp.Failed {
		if f.Index < 0 || f.Index >= len(msgs) {
			errs = append(errs, fmt.Errorf("server reported failure for out-of-range index %d: %s", f.Index, f.Error))
			continue
		}
		single(f.Index) // retry splitting: failed items go out individually
	}
	return ids, errors.Join(errs...)
}

// negotiate runs the lazy hello exchange once per client. A server that
// answers the handshake fixes the version at min(ours, theirs); a server
// that rejects the op (pre-v2) fixes it at 1. Transport failures do not pin
// anything — the next call retries. When the client's ceiling allows it and
// TextOnly is off, the hello also asks for binary framing; a grant switches
// the current connection immediately.
func (c *Client) negotiate(ctx context.Context) (int, error) {
	if c.version != 0 {
		return c.version, nil
	}
	if c.opts.MaxVersion <= 1 {
		// A v1 peer: no handshake exists at this version.
		c.version = 1
		return 1, nil
	}
	askBinary := !c.opts.TextOnly && c.opts.MaxVersion >= protoBinary
	resp, err := c.DoContext(ctx, Request{Op: "hello", Version: c.opts.MaxVersion, Binary: askBinary})
	switch {
	case err == nil:
		c.version = resp.Version
		if c.version < 1 {
			c.version = 1
		}
		if c.version > c.opts.MaxVersion {
			c.version = c.opts.MaxVersion
		}
		if resp.Binary && resp.Version >= protoBinary && c.conn != nil {
			c.binOn = true
		} else if askBinary && resp.Version >= protoBinary {
			c.binVeto = true
		}
	case resp.Error != "":
		// The server answered and refused: an old peer without hello.
		c.version = 1
	default:
		return 0, err
	}
	return c.version, nil
}

// GetMail runs the server-side GetMail walk for the user.
func (c *Client) GetMail(user string) ([]Message, error) {
	return c.GetMailContext(context.Background(), user)
}

// GetMailContext is GetMail honoring a context.
func (c *Client) GetMailContext(ctx context.Context, user string) ([]Message, error) {
	resp, err := c.DoContext(ctx, Request{Op: "getmail", User: user})
	return resp.Messages, err
}

// QueryResult is a wire query's answer: the matching users plus the
// fan-out accounting (servers visited, pruned on sketch proof, unavailable).
type QueryResult struct {
	Matches []string
	Stats   QueryStats
}

// Query runs a content query ("content=budget", conjunctions with commas)
// across the cluster's mailbox stores. Requires a protocol version ≥ 3
// server; older peers refuse the verb after the lazy hello pins the version.
func (c *Client) Query(query string) (QueryResult, error) {
	return c.QueryContext(context.Background(), query)
}

// QueryContext is Query honoring a context.
func (c *Client) QueryContext(ctx context.Context, query string) (QueryResult, error) {
	ver, err := c.negotiate(ctx)
	if err != nil {
		return QueryResult{}, err
	}
	if ver < protoQuery {
		return QueryResult{}, fmt.Errorf("wire: query requires protocol version %d, server speaks %d", protoQuery, ver)
	}
	resp, err := c.DoContext(ctx, Request{Op: "query", Query: query})
	if err != nil {
		return QueryResult{}, err
	}
	out := QueryResult{Matches: resp.Matches}
	if resp.QueryStats != nil {
		out.Stats = *resp.QueryStats
	}
	return out, nil
}

// Status reports per-server availability and deposit counts.
func (c *Client) Status() ([]ServerStatus, error) {
	snap, err := c.StatusSnapshot()
	return snap.Servers, err
}

// StatusContext is Status honoring a context.
func (c *Client) StatusContext(ctx context.Context) ([]ServerStatus, error) {
	snap, err := c.StatusSnapshotContext(ctx)
	return snap.Servers, err
}

// StatusFull reports the server rows plus a flat counter map (counters and
// gauges merged, so the old keys — including "spool_depth" — keep working).
// Prefer StatusSnapshot for the structured form with histograms.
func (c *Client) StatusFull() ([]ServerStatus, map[string]int64, error) {
	snap, err := c.StatusSnapshot()
	if err != nil {
		return snap.Servers, nil, err
	}
	flat := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		flat[k] = v
	}
	for k, v := range snap.Gauges {
		flat[k] = v
	}
	return snap.Servers, flat, nil
}

// StatusSnapshot fetches the versioned observability snapshot: server rows,
// counters, gauges, and per-stage latency histograms.
func (c *Client) StatusSnapshot() (StatusSnapshot, error) {
	return c.StatusSnapshotContext(context.Background())
}

// StatusSnapshotContext is StatusSnapshot honoring a context.
func (c *Client) StatusSnapshotContext(ctx context.Context) (StatusSnapshot, error) {
	resp, err := c.DoContext(ctx, Request{Op: "status"})
	if err != nil || resp.Status == nil {
		return StatusSnapshot{}, err
	}
	return *resp.Status, nil
}

// SetAvailability crashes or recovers a named server.
func (c *Client) SetAvailability(server string, up bool) error {
	return c.SetAvailabilityContext(context.Background(), server, up)
}

// SetAvailabilityContext is SetAvailability honoring a context.
func (c *Client) SetAvailabilityContext(ctx context.Context, server string, up bool) error {
	op := "recover"
	if !up {
		op = "crash"
	}
	_, err := c.DoContext(ctx, Request{Op: op, Server: server})
	return err
}
