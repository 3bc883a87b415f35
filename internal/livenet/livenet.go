// Package livenet runs the paper's syntax-directed delivery core on a real
// concurrent runtime: every mail server is a goroutine owning its state and
// serving requests over channels, and time is wall-clock time.
//
// The discrete-event simulation (internal/netsim + internal/server) is the
// reference used for the experiments; livenet exists to demonstrate that the
// same algorithms — ordered authority-server lists, deposit-with-failover,
// and the GetMail retrieval procedure driven by LastCheckingTime vs
// LastStartTime (§3.1.2c) — are runtime-independent. The package is safe for
// concurrent use and race-clean under `go test -race`.
package livenet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/sketch"
)

// Errors reported by livenet operations. The availability and naming errors
// wrap the shared taxonomy in internal/mailerr, so callers can branch on
// cross-layer categories (mailerr.ErrServerDown, mailerr.ErrUnknownUser)
// without importing livenet.
var (
	ErrServerDown  = fmt.Errorf("livenet: server is down: %w", mailerr.ErrServerDown)
	ErrNoAuthority = fmt.Errorf("livenet: user has no authority servers: %w", mailerr.ErrUnknownUser)
	ErrAllDown     = fmt.Errorf("livenet: no authority server available: %w", mailerr.ErrServerDown)
	ErrClosed      = errors.New("livenet: cluster closed")
	// ErrUnreachable marks a server that is running but cut off from the
	// network — §3.1.2c's "disconnected from the network" failure mode,
	// injected by internal/faults link events.
	ErrUnreachable = fmt.Errorf("livenet: server unreachable (link down): %w", mailerr.ErrServerDown)
	// ErrInjected marks a request discarded by an injected transient drop
	// fault. Unlike ErrServerDown/ErrUnreachable it does NOT mean the server
	// is unavailable: callers must retry the same server, not fail over past
	// it, or the GetMail walk would stop short of the spilled mail.
	ErrInjected = errors.New("livenet: injected message drop")
)

// maxTransientRetries bounds immediate same-server retries of injected
// transient failures before a deposit is handed to the spool.
const maxTransientRetries = 4

// Directory maps users to their ordered authority-server lists. It is safe
// for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	lists map[names.Name]dirEntry
}

// dirEntry is one registration: the name as it was registered and its
// authority list. The name is kept so that whatever a delivery leaves behind
// for good — a mailbox, its store's map key — can be made under the
// directory's copy of it and not the submitter's, which may be a piece of a
// request frame many times its size (see lookup).
type dirEntry struct {
	user    names.Name
	servers []string
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lists: make(map[names.Name]dirEntry)}
}

// SetAuthority records the ordered authority list for a user. The directory
// keeps user's strings for as long as the registration stands.
func (d *Directory) SetAuthority(user names.Name, servers []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(servers) == 0 {
		delete(d.lists, user)
		return
	}
	d.lists[user] = dirEntry{user: user, servers: append([]string(nil), servers...)}
}

// Authority returns the user's ordered authority list. The slice is the
// directory's own and immutable — SetAuthority stores a private copy and
// replaces it whole — so callers must not modify it.
func (d *Directory) Authority(user names.Name) []string {
	_, servers := d.lookup(user)
	return servers
}

// lookup is Authority for the delivery path: with the list it returns the
// name the user was registered under — equal to user, but the directory's own
// strings and not the caller's (user itself when there is no registration).
func (d *Directory) lookup(user names.Name) (names.Name, []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e, ok := d.lists[user]; ok {
		return e.user, e.servers
	}
	return user, nil
}

// Registered finds a registration by the tokens of its name as they lie in a
// read buffer and returns the name it was made under, the directory's own
// strings. The tokens are converted inside the map index: nothing is allocated.
func (d *Directory) Registered(region, host, user []byte) (names.Name, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.lists[names.Name{Region: string(region), Host: string(host), User: string(user)}]
	return e.user, ok
}

// request is a unit of work executed by a server's loop goroutine. Requests
// are pooled, and the two per-message operations carry their arguments and
// result in typed fields, so a Deposit or CheckMail allocates neither a
// closure nor a completion channel; everything else rides fn.
type request struct {
	op   reqOp
	user names.Name         // opDeposit: the recipient; opCheckMail: the mailbox
	msg  mail.Message       // opDeposit
	fn   func(*serverState) // opFunc
	out  []mail.Stored      // opCheckMail: the drained mail
	// done is buffered, so the loop never waits for a caller that gave up,
	// and is reused for as long as the request is pooled.
	done chan struct{}
}

type reqOp uint8

const (
	opFunc reqOp = iota
	opDeposit
	opCheckMail
)

var requestPool = sync.Pool{New: func() any { return &request{done: make(chan struct{}, 1)} }}

// release clears the request and returns it to the pool. Only a request that
// is not in flight may be released: one that never reached a loop, or whose
// completion has been received.
func (r *request) release() {
	*r = request{done: r.done}
	requestPool.Put(r)
}

// serverState is owned exclusively by the server goroutine. The sharded
// store is the same structure the simulation servers use; here its striping
// additionally lets read-only totals (StoredBytes) be computed without a
// trip through the request loop.
type serverState struct {
	store *mailstore.Store
}

// Server is one mail server: a goroutine owning mailboxes, reachable through
// a request channel. Crash/Recover toggle availability without losing the
// mailbox contents (memory survives, as a wedged-but-alive process).
// Kill/Restart model a real process death: the goroutine exits, the store is
// closed, and Restart reopens it from disk — on a durable cluster (DataDir
// set) the mailboxes come back, on a memory cluster they are gone.
type Server struct {
	name    string
	stats   *obs.Registry // cluster-wide instrument registry (concurrency-safe)
	trace   *obs.Tracer   // the cluster's lifecycle tracer
	mkStore func() (*mailstore.Store, error)

	// runMu guards the run generation: the channels the goroutine serves,
	// the store it owns, and whether it has been stopped. Kill/Restart swap
	// a whole generation under the write lock; call() snapshots one under
	// the read lock.
	runMu   sync.RWMutex
	reqs    chan *request
	quit    chan struct{}
	done    chan struct{}
	store   *mailstore.Store
	stopped bool
	// walBase accumulates the WAL counters of stores closed by Kill, so
	// DurabilityStats stays cumulative across kill-restart cycles instead of
	// resetting with each fresh Open. Guarded by runMu.
	walBase mailstore.WALStats

	killed    atomic.Bool
	up        atomic.Bool
	lastStart atomic.Int64 // unix nanos of the last start/recovery

	// Fault-injection state (internal/faults): link reachability, added
	// request latency, and transient drop probability in per-mille.
	unreach   atomic.Bool
	latencyNs atomic.Int64
	dropMilli atomic.Int64

	// Per-server named instruments ("<name>.deposits", "<name>.checks",
	// "<name>.qdepth") in the cluster registry, so the status snapshot
	// carries them per entity. qdepth tracks mail buffered awaiting pickup
	// (fresh deposits minus drained retrievals) — the signal JSQ(d)
	// placement samples.
	deposits *obs.Counter
	checks   *obs.Counter
	qdepth   *obs.Gauge
}

// Name returns the server's identifier.
func (s *Server) Name() string { return s.name }

// Up reports whether the server currently accepts requests.
func (s *Server) Up() bool { return s.up.Load() }

// LastStart reports when the server last started or recovered — the
// LastStartTime[server] variable of §3.1.2c.
func (s *Server) LastStart() time.Time { return time.Unix(0, s.lastStart.Load()) }

// Deposits reports how many messages this server has buffered in total.
func (s *Server) Deposits() int64 { return s.deposits.Value() }

// Checks reports how many CheckMail polls this server has served.
func (s *Server) Checks() int64 { return s.checks.Value() }

// Crash makes the server reject requests. Buffered mail survives.
func (s *Server) Crash() { s.up.Store(false) }

// Recover brings the server back and stamps a fresh LastStartTime.
func (s *Server) Recover() {
	// Stamp before flipping up so a concurrent GetMail that sees the
	// server up also sees a LastStartTime no older than the recovery.
	s.lastStart.Store(time.Now().UnixNano())
	s.up.Store(true)
}

// SetReachable toggles the server's network link. An unreachable server is
// running (Up stays true) but every request fails with ErrUnreachable.
// Restoring reachability stamps a fresh LastStartTime: §3.1.2c counts
// "being disconnected from the network" as unavailability, so reconnection
// must look like a recovery to the GetMail walk — deposits that failed over
// past the partitioned server are only found because of this stamp.
func (s *Server) SetReachable(ok bool) {
	if ok {
		s.lastStart.Store(time.Now().UnixNano())
		s.unreach.Store(false)
		return
	}
	s.unreach.Store(true)
}

// Reachable reports whether the server's network link is up.
func (s *Server) Reachable() bool { return !s.unreach.Load() }

// SetLatency makes every request to this server take at least d longer —
// an injected slow-link fault. Zero clears it.
func (s *Server) SetLatency(d time.Duration) { s.latencyNs.Store(int64(d)) }

// SetDropProb makes requests to this server fail with ErrInjected with
// probability p before they execute — an injected lossy-link fault. The
// request is never half-applied: a dropped CheckMail has not drained the
// mailbox. p is clamped to [0, 1]; zero clears the fault.
func (s *Server) SetDropProb(p float64) {
	switch {
	case p <= 0:
		s.dropMilli.Store(0)
	case p >= 1:
		s.dropMilli.Store(1000)
	default:
		s.dropMilli.Store(int64(p * 1000))
	}
}

// callFn runs fn on the server goroutine and waits for completion.
func (s *Server) callFn(fn func(*serverState)) error {
	_, err := s.call(opFunc, names.Name{}, mail.Message{}, fn)
	return err
}

// call runs one operation on the server goroutine and waits for completion,
// returning what a CheckMail drained. Injected faults gate the call up
// front, so a failed call has not executed at all.
func (s *Server) call(op reqOp, user names.Name, msg mail.Message, fn func(*serverState)) ([]mail.Stored, error) {
	if d := time.Duration(s.latencyNs.Load()); d > 0 {
		time.Sleep(d) // the caller's goroutine stalls, not the server loop
	}
	if !s.Up() {
		return nil, fmt.Errorf("%w: %s", ErrServerDown, s.name)
	}
	if !s.Reachable() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, s.name)
	}
	if p := s.dropMilli.Load(); p > 0 && rand.Int63n(1000) < p {
		if s.stats != nil {
			s.stats.Inc("injected_drops")
		}
		return nil, fmt.Errorf("%w: %s", ErrInjected, s.name)
	}
	s.runMu.RLock()
	reqs, quit := s.reqs, s.quit
	s.runMu.RUnlock()
	req := requestPool.Get().(*request)
	req.op, req.user, req.msg, req.fn = op, user, msg, fn
	select {
	case reqs <- req:
	case <-quit:
		req.release() // never handed over
		return nil, s.downErr(quit)
	}
	select {
	case <-req.done:
		out := req.out
		req.release()
		return out, nil
	case <-quit:
		// Abandoned in flight: the dying loop may still run it and signal
		// done. It is left to the garbage collector — back in the pool it
		// would hand the next caller this call's completion.
		return nil, s.downErr(quit)
	}
}

// downErr maps a closed run generation to the right caller-visible error: a
// killed server is down (callers fail over, exactly as for Crash), a closed
// cluster is terminal. gen is the quit channel the caller snapshotted; if a
// Kill and a complete Restart both finished before the caller observed the
// close, killed has already flipped back to false, but the snapshotted
// channel no longer being the current generation's still identifies a
// generation that died — report retryable ErrServerDown, not terminal
// ErrClosed.
func (s *Server) downErr(gen chan struct{}) error {
	if s.killed.Load() {
		return fmt.Errorf("%w: %s (killed)", ErrServerDown, s.name)
	}
	s.runMu.RLock()
	superseded := s.quit != gen
	s.runMu.RUnlock()
	if superseded {
		return fmt.Errorf("%w: %s (killed)", ErrServerDown, s.name)
	}
	return ErrClosed
}

// Deposit buffers a message for a recipient. It fails when the server is
// down, letting the caller fail over to the next authority server.
func (s *Server) Deposit(msg mail.Message, rcpt names.Name) error {
	_, err := s.call(opDeposit, rcpt, msg, nil)
	return err
}

// deposit stores one recipient copy and stamps it deposited; server goroutine
// only, as every CheckMail of this server is — a caller stamping after its call
// returned could come second to the retrieval that drained the copy.
func (s *Server) deposit(st *serverState, msg mail.Message, rcpt names.Name) {
	if st.store.Deposit(rcpt, msg, 0) {
		s.deposits.Inc()
		s.qdepth.Add(1)
	}
	s.trace.StampKey(msg.ID.TraceKey(), obs.StageDeposit, s.name)
}

// BatchDeposit is one recipient copy inside a DepositBatch call.
type BatchDeposit struct {
	Msg  mail.Message
	Rcpt names.Name
}

// DepositBatch buffers several recipient copies in one server round-trip:
// one availability/fault gate and one request on the server loop instead of
// one per copy — the livenet face of the relay-batching fabric, used by the
// spool worker to drain coalesced redeliveries. Per-mailbox duplicate
// suppression applies item by item, exactly as with individual Deposits.
func (s *Server) DepositBatch(items []BatchDeposit) error {
	return s.callFn(func(st *serverState) {
		for _, it := range items {
			s.deposit(st, it.Msg, it.Rcpt)
		}
	})
}

// CheckMail drains the user's mailbox ("get mail from server").
func (s *Server) CheckMail(user names.Name) ([]mail.Stored, error) {
	return s.call(opCheckMail, user, mail.Message{}, nil)
}

// CheckMailFit is CheckMail for a caller with no agent to hold what it cannot
// pass on at once (the wire checkmail verb): fit is shown the buffered
// messages on the server goroutine, read-only, and says how many of the
// leading ones to take; the rest stay in the mailbox for the next call.
func (s *Server) CheckMailFit(user names.Name, fit func([]mail.Stored) int) ([]mail.Stored, error) {
	var out []mail.Stored
	if err := s.callFn(func(st *serverState) { out = s.checkMail(st, user, fit) }); err != nil {
		return nil, err
	}
	return out, nil
}

// checkMail serves one poll; server goroutine only.
func (s *Server) checkMail(st *serverState, user names.Name, fit func([]mail.Stored) int) []mail.Stored {
	s.checks.Inc()
	out := st.store.DrainFit(user, fit)
	if n := len(out); n > 0 {
		s.qdepth.Add(int64(-n))
	}
	return out
}

// MailboxLen reports buffered messages for a user.
func (s *Server) MailboxLen(user names.Name) (int, error) {
	n := 0
	err := s.callFn(func(st *serverState) {
		n = st.store.Len(user)
	})
	return n, err
}

// StoredBytes reports the total buffered content bytes on this server — an
// O(shards) counter sum over the sharded store, served through the request
// loop like every other state access.
func (s *Server) StoredBytes() (int64, error) {
	var n int64
	err := s.callFn(func(st *serverState) {
		n = st.store.TotalBytes()
	})
	return n, err
}

// Search returns the users on this server whose buffered mail contains every
// term, in sorted order — the per-store leg of a wire `query`. It requires
// the cluster's term index (ClusterConfig.TermIndex); without it the store
// returns nothing, which opQuery surfaces as an explicit refusal instead.
func (s *Server) Search(terms []string) ([]names.Name, error) {
	var out []names.Name
	err := s.callFn(func(st *serverState) {
		out = st.store.SearchTerms(terms)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sketch returns the store's term sketch and its staleness generation, nil
// when the term index is off. The wire query planner probes it to skip
// servers that provably hold no match without paying a Search round-trip.
func (s *Server) Sketch() (*sketch.Filter, uint64, error) {
	var f *sketch.Filter
	var gen uint64
	err := s.callFn(func(st *serverState) {
		f, gen = st.store.Sketch()
	})
	if err != nil {
		return nil, 0, err
	}
	return f, gen, nil
}

// loop serves one run generation. The channels are passed explicitly — not
// read from the struct — so a Restart that swaps in a new generation cannot
// race with an old goroutine still draining its own.
func (s *Server) loop(st *serverState, reqs chan *request, quit, done chan struct{}) {
	defer close(done)
	for {
		select {
		case req := <-reqs:
			switch req.op {
			case opDeposit:
				s.deposit(st, req.msg, req.user)
			case opCheckMail:
				req.out = s.checkMail(st, req.user, nil)
			default:
				req.fn(st)
			}
			req.done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// halt stops the current run generation and waits for its goroutine to
// exit. Idempotent per generation.
func (s *Server) halt() {
	s.runMu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.quit)
	}
	done := s.done
	s.runMu.Unlock()
	<-done
}

// closeStore detaches and closes the server's store (final WAL sync),
// folding its WAL counters into walBase first so cumulative durability stats
// survive the store's replacement.
func (s *Server) closeStore() error {
	s.runMu.Lock()
	st := s.store
	s.store = nil
	if st != nil {
		if ws, ok := st.WALStats(); ok {
			s.walBase.Add(ws)
		}
	}
	s.runMu.Unlock()
	if st != nil {
		return st.Close()
	}
	return nil
}

// Kill tears the server down like a process death: requests fail over, the
// goroutine exits, and the store is closed. Unlike Crash, nothing is kept in
// memory — Restart recovers only what the durable store persisted (nothing,
// on a memory cluster).
func (s *Server) Kill() error {
	if !s.killed.CompareAndSwap(false, true) {
		return nil
	}
	s.stats.Inc("kills") // counted here, not in KillServer: fault injectors call Kill directly
	s.up.Store(false)
	s.halt()
	return s.closeStore()
}

// Restart brings a killed server back from its store — recovered from disk
// on a durable cluster, empty on a memory one — and stamps the recovered
// LastStartTime before going up, so a concurrent GetMail that sees the
// server up also sees a start stamp no older than the restart (§3.1.2c).
func (s *Server) Restart() error {
	if !s.killed.Load() {
		return nil // idempotent: overlapping fault windows replay cleanly
	}
	st, err := s.mkStore()
	if err != nil {
		return fmt.Errorf("livenet: restart %s: %w", s.name, err)
	}
	s.runMu.Lock()
	if !s.stopped {
		s.runMu.Unlock()
		st.Close()
		return fmt.Errorf("livenet: server %s already running", s.name)
	}
	s.store = st
	s.reqs = make(chan *request)
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	s.stopped = false
	go s.loop(&serverState{store: st}, s.reqs, s.quit, s.done)
	s.runMu.Unlock()
	s.qdepth.Set(st.TotalMessages()) // what the store recovered, not what the dead one held
	ts := st.LastStartTime()         // zero on memory stores
	if ts.IsZero() {
		ts = time.Now()
	}
	s.lastStart.Store(ts.UnixNano())
	s.killed.Store(false)
	s.up.Store(true)
	s.stats.Inc("restarts")
	return nil
}

// ClusterConfig configures the cluster's mailbox stores. The zero value is
// the historical behavior: memory-only stores with the default shard count.
type ClusterConfig struct {
	// StoreShards is the per-server mailstore shard count (<= 0 selects
	// mailstore.DefaultShards).
	StoreShards int
	// DataDir, when set, makes every server's store durable: each server
	// logs to DataDir/<name> and Kill/Restart recovers from it.
	DataDir string
	// Fsync is the WAL fsync policy for durable stores.
	Fsync mailstore.FsyncMode
	// Placement, when set, is the cluster's placement policy: registrations
	// that arrive without an explicit server list (wire "register") are
	// placed by consulting it through PlaceUser. Nil keeps the historical
	// default (every server, registration order).
	Placement placement.Policy
	// PlacementName maps a policy slot to a server name (default
	// placement.DefaultLabel, "S<slot>" — mailbench/maild's convention).
	PlacementName func(slot int) string
	// TermIndex turns on every store's per-shard term index and sketch
	// (mailstore.EnableTermIndex), the structures behind the wire `query`
	// verb. Off by default: index maintenance rides the deposit/drain hot
	// path, and clusters that never serve queries should not pay for it.
	TermIndex bool
}

// Cluster is a set of live servers sharing a directory.
type Cluster struct {
	cfg     ClusterConfig
	dir     *Directory
	mu      sync.RWMutex
	servers map[string]*Server
	closed  atomic.Bool
	nextSeq atomic.Uint64
	stats   *obs.Registry
	trace   *obs.Tracer

	spoolMu sync.Mutex
	spool   *spool
}

// NewCluster returns an empty memory-only cluster with its directory.
// Lifecycle tracing is always on: every submitted message is stamped through
// the pipeline on the wall clock, feeding the per-stage latency histograms
// in Obs(). The tracer is the bounded one (obs.NewRingTracer) — a cluster is
// what a daemon runs for months — so it holds the most recent traces only; an
// auditor that reads every trace when its run ends calls Tracer().KeepAll()
// before it submits anything.
func NewCluster() *Cluster { return NewClusterWith(ClusterConfig{}) }

// NewClusterWith is NewCluster with explicit store configuration — shard
// count and, optionally, a data directory that makes every server durable.
func NewClusterWith(cfg ClusterConfig) *Cluster {
	reg := obs.NewRegistry()
	return &Cluster{
		cfg:     cfg,
		dir:     NewDirectory(),
		servers: make(map[string]*Server),
		stats:   reg,
		trace:   obs.NewRingTracer(obs.WallClock, reg),
	}
}

// Durable reports whether the cluster's stores persist to disk.
func (c *Cluster) Durable() bool { return c.cfg.DataDir != "" }

// newStore builds one server's mailbox store per the cluster config.
func (c *Cluster) newStore(name string) (*mailstore.Store, error) {
	var st *mailstore.Store
	var err error
	if c.cfg.DataDir == "" {
		st = mailstore.New(c.cfg.StoreShards)
	} else {
		st, err = mailstore.OpenOptions(mailstore.Options{
			Dir:    filepath.Join(c.cfg.DataDir, name),
			Shards: c.cfg.StoreShards,
			Fsync:  c.cfg.Fsync,
		})
		if err != nil {
			return nil, err
		}
	}
	if c.cfg.TermIndex {
		st.EnableTermIndex()
	}
	return st, nil
}

// Directory returns the cluster's shared directory.
func (c *Cluster) Directory() *Directory { return c.dir }

// Obs returns the cluster's instrument registry: robustness counters,
// per-server "<name>.deposits"/"<name>.checks", and the tracer-fed
// "lat_<stage>"/"lat_e2e" histograms.
func (c *Cluster) Obs() *obs.Registry { return c.stats }

// Tracer returns the cluster's message-lifecycle tracer.
func (c *Cluster) Tracer() *obs.Tracer { return c.trace }

// Metrics returns a flat snapshot of the cluster's counters, including the
// robustness set ("submit_spooled", "spool_redelivered", "spool_retries",
// "spool_depth", "deposit_failovers", "deposit_retries", "injected_drops")
// and the per-server "<name>.deposits"/"<name>.checks" counters.
func (c *Cluster) Metrics() map[string]int64 {
	snap := c.stats.Counters()
	snap["spool_depth"] = int64(c.SpoolDepth())
	return snap
}

// Snapshot returns the structured, versioned observability snapshot of the
// cluster — counters, gauges, and latency histograms — refreshing the
// "spool_depth" gauge first. This is what the wire "status" op ships.
func (c *Cluster) Snapshot() obs.Snapshot {
	c.stats.Gauge("spool_depth").Set(int64(c.SpoolDepth()))
	return c.stats.Snapshot()
}

// AddServer starts a server goroutine. Names must be unique. On a durable
// cluster the server's store is recovered from DataDir/<name> (creating it
// on first start) and the recovered LastStartTime becomes the server's
// §3.1.2c start stamp.
func (c *Cluster) AddServer(name string) (*Server, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.servers[name]; dup {
		return nil, fmt.Errorf("livenet: server %q already exists", name)
	}
	st, err := c.newStore(name)
	if err != nil {
		return nil, err
	}
	// A recovered store's suppression memory spans every ID this cluster ever
	// assigned (Submit mints Node 1). Resume the allocator above that floor:
	// a fresh process otherwise restarts at seq 1 and its first submits are
	// silently swallowed as duplicates of already-delivered mail.
	if floor := st.MaxSeenSeq(1); floor > 0 {
		for {
			cur := c.nextSeq.Load()
			if cur >= floor || c.nextSeq.CompareAndSwap(cur, floor) {
				break
			}
		}
	}
	s := &Server{
		name:     name,
		stats:    c.stats,
		trace:    c.trace,
		mkStore:  func() (*mailstore.Store, error) { return c.newStore(name) },
		deposits: c.stats.Counter(name + ".deposits"),
		checks:   c.stats.Counter(name + ".checks"),
		qdepth:   c.stats.Gauge(name + ".qdepth"),
		reqs:     make(chan *request),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		store:    st,
	}
	s.qdepth.Set(st.TotalMessages()) // a reopened data directory comes with its backlog
	ts := st.LastStartTime()
	if ts.IsZero() {
		ts = time.Now()
	}
	s.lastStart.Store(ts.UnixNano())
	s.up.Store(true)
	c.servers[name] = s
	go s.loop(&serverState{store: st}, s.reqs, s.quit, s.done)
	return s, nil
}

// PlaceUser consults the cluster's placement policy for a user's authority
// list (nil without a policy, or when the policy places onto no known
// server). The user's name is hashed to a stable index, so repeated
// registrations of the same user are placed consistently by index-driven
// policies while load-driven ones (JSQ) stay free to pick per call.
func (c *Cluster) PlaceUser(user names.Name) []string {
	c.mu.RLock()
	pol, label := c.cfg.Placement, c.cfg.PlacementName
	c.mu.RUnlock()
	if pol == nil {
		return nil
	}
	if label == nil {
		label = placement.DefaultLabel
	}
	h := fnv.New32a()
	h.Write([]byte(user.String()))
	idx := int(h.Sum32() & 0x7fffffff)
	var out []string
	for _, slot := range pol.Place(placement.User{Index: idx, Host: -1}) {
		name := label(slot)
		if _, ok := c.Server(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// SetPlacement installs (or replaces) the cluster's placement policy after
// construction — the path a policy that samples the cluster's own registry
// (JSQ) must take, since the registry does not exist until NewClusterWith
// returns. A nil name keeps the configured slot-to-server mapping.
func (c *Cluster) SetPlacement(pol placement.Policy, name func(slot int) string) {
	c.mu.Lock()
	c.cfg.Placement = pol
	if name != nil {
		c.cfg.PlacementName = name
	}
	c.mu.Unlock()
}

// KillServer kills a server by name (see Server.Kill).
func (c *Cluster) KillServer(name string) error {
	s, ok := c.Server(name)
	if !ok {
		return fmt.Errorf("livenet: no server %q", name)
	}
	return s.Kill()
}

// RestartServer restarts a killed server from its store (see
// Server.Restart).
func (c *Cluster) RestartServer(name string) error {
	s, ok := c.Server(name)
	if !ok {
		return fmt.Errorf("livenet: no server %q", name)
	}
	return s.Restart()
}

// DurabilityStats sums the WAL write-path counters across every server,
// including the accumulated totals of stores closed by earlier kill-restart
// cycles — the numbers are cumulative write-path work, not just the current
// stores'; ok is false on memory-only clusters.
func (c *Cluster) DurabilityStats() (mailstore.WALStats, bool) {
	if !c.Durable() {
		return mailstore.WALStats{}, false
	}
	var sum mailstore.WALStats
	c.mu.RLock()
	servers := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.mu.RUnlock()
	for _, s := range servers {
		s.runMu.RLock()
		st := s.store
		base := s.walBase
		s.runMu.RUnlock()
		sum.Add(base)
		if st == nil {
			continue
		}
		if ws, ok := st.WALStats(); ok {
			sum.Add(ws)
		}
	}
	return sum, true
}

// Server returns a server by name.
func (c *Cluster) Server(name string) (*Server, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servers[name]
	return s, ok
}

// ServerNames returns every server's name, sorted.
func (c *Cluster) ServerNames() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.servers))
	for name := range c.servers {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Close stops the spool worker and every server goroutine, waiting for them
// to exit.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.spoolMu.Lock()
	sp := c.spool
	c.spoolMu.Unlock()
	if sp != nil {
		sp.stop()
	}
	c.mu.RLock()
	servers := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.mu.RUnlock()
	for _, s := range servers {
		s.halt()
		s.closeStore()
	}
}

// Submit accepts a message and deposits one copy per recipient at the first
// available authority server, failing over down the list (§3.1.2c: "mail
// will be deposited in the first active server from the list"). All
// recipients are attempted even when some fail; the assigned message ID is
// returned together with the per-recipient errors joined via errors.Join.
//
// With the spool enabled (EnableSpool), a recipient copy that cannot be
// deposited anywhere right now is buffered for background redelivery instead
// of failing — Submit then only errors for recipients with no authority list
// at all, and an accepted message is never lost (§3.1.2b buffering, claim
// E2).
func (c *Cluster) Submit(from names.Name, to []names.Name, subject, body string) (mail.MessageID, error) {
	return c.SubmitContext(context.Background(), from, to, subject, body)
}

// SubmitContext is Submit honoring a context: a deadline or cancellation
// stops the per-recipient delivery loop, and the unattempted recipients are
// reported as mailerr.ErrTimeout failures. Recipients already deposited (or
// spooled) before the expiry stay committed — a context error is a partial
// result, exactly like a per-recipient delivery error.
//
// The cluster keeps to as the message's recipient list: the caller gives the
// slice up and must not write to it afterwards (the wire server and the load
// drivers build one per call; Agent.Send, which is handed a user's, copies).
// The recipients' strings are not kept past retrieval: each copy is deposited,
// or spooled, under the directory's copy of the recipient's name.
func (c *Cluster) SubmitContext(ctx context.Context, from names.Name, to []names.Name, subject, body string) (mail.MessageID, error) {
	if c.closed.Load() {
		return mail.MessageID{}, ErrClosed
	}
	if err := ctxErr(ctx); err != nil {
		return mail.MessageID{}, err
	}
	msg := mail.Message{
		ID:      mail.MessageID{Node: 1, Seq: c.nextSeq.Add(1)},
		From:    from,
		To:      to,
		Subject: subject,
		Body:    body,
	}
	c.trace.StampKey(msg.ID.TraceKey(), obs.StageSubmit, "cluster")
	var errs []error
	for _, rcpt := range msg.To {
		if err := ctxErr(ctx); err != nil {
			errs = append(errs, fmt.Errorf("deliver to %v: %w", rcpt, err))
			continue
		}
		rcpt, list := c.dir.lookup(rcpt)
		err := c.depositFailover(msg, rcpt, list)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNoAuthority) {
			c.spoolMu.Lock()
			sp := c.spool
			c.spoolMu.Unlock()
			if sp != nil {
				sp.add(msg, rcpt)
				c.stats.Inc("submit_spooled")
				continue // accepted: the spool guarantees redelivery
			}
		}
		errs = append(errs, fmt.Errorf("deliver to %v: %w", rcpt, err))
	}
	return msg.ID, errors.Join(errs...)
}

// ctxErr maps a context cancellation or deadline into the shared timeout
// taxonomy (nil if the context is still live).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("livenet: %w: %v", mailerr.ErrTimeout, err)
	}
	return nil
}

// firstAvailable returns the name of the recipient's first up-and-reachable
// authority server — the spool's batching key: due entries that share it can
// be drained with one DepositBatch round.
func (c *Cluster) firstAvailable(rcpt names.Name) (string, bool) {
	for _, name := range c.dir.Authority(rcpt) {
		if s, ok := c.Server(name); ok && s.Up() && s.Reachable() {
			return name, true
		}
	}
	return "", false
}

// depositFailover deposits one recipient copy following §3.1.2c: walk list,
// the recipient's authority list, skipping servers that are down or
// unreachable (their recovery stamps a fresh LastStartTime, which is what
// lets GetMail find mail that failed over past them), and deposit at the
// first available server.
//
// Transient faults (ErrInjected) are retried a few times against the same
// server and then reported to the caller — they must never cause failover,
// because skipping a live, stable server would strand the copy beyond the
// point where the recipient's GetMail walk stops.
func (c *Cluster) depositFailover(msg mail.Message, rcpt names.Name, list []string) error {
	if len(list) == 0 {
		return fmt.Errorf("%w: %v", ErrNoAuthority, rcpt)
	}
	c.trace.StampKey(msg.ID.TraceKey(), obs.StageResolve, "directory")
	var lastErr error
	for i, name := range list {
		s, ok := c.Server(name)
		if !ok {
			continue
		}
		err := s.Deposit(msg, rcpt)
		for r := 0; errors.Is(err, ErrInjected) && r < maxTransientRetries; r++ {
			c.stats.Inc("deposit_retries")
			err = s.Deposit(msg, rcpt)
		}
		if err == nil {
			if i > 0 {
				c.stats.Inc("deposit_failovers")
			}
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrServerDown) || errors.Is(err, ErrUnreachable) {
			continue // unavailability is stamped at recovery; failover is safe
		}
		return err // transient persisted: retry later, never skip a live server
	}
	if lastErr == nil {
		lastErr = ErrAllDown
	}
	return fmt.Errorf("%w (%v)", ErrAllDown, lastErr)
}

// Agent is a live user agent implementing the paper's GetMail procedure on
// wall-clock time. Agents are not safe for concurrent use by multiple
// goroutines (a user interface is a single actor); distinct agents may run
// concurrently.
type Agent struct {
	user    names.Name
	cluster *Cluster

	lastChecking int64 // unix nanos, the clock Server.LastStart is kept on; 0 = never
	prevUnavail  mail.Unavailable[string]
	seen         mail.IDSet
	inbox        mail.Inbox
	polls        int
	retrievals   int
}

// NewAgent creates an agent for a user registered in the directory: one
// allocation. PreviouslyUnavailableServers is made by the first failed poll
// and the duplicate memory holds its first IDs inline; most agents poll an
// empty mailbox on servers that are up, and never write either.
func (c *Cluster) NewAgent(user names.Name) (*Agent, error) {
	a := new(Agent)
	if err := c.InitAgent(a, user); err != nil {
		return nil, err
	}
	return a, nil
}

// InitAgent is NewAgent in place, for an owner that keeps the agent inside a
// record of its own: no allocation. The agent goes by the directory's copy of
// the name, not the caller's, which may be a piece of a request many times its
// size. On an error a is left as it was.
func (c *Cluster) InitAgent(a *Agent, user names.Name) error {
	user, list := c.dir.lookup(user)
	if len(list) == 0 {
		return fmt.Errorf("%w: %v", ErrNoAuthority, user)
	}
	*a = Agent{user: user, cluster: c}
	return nil
}

// User returns the agent's name.
func (a *Agent) User() names.Name { return a.user }

// Inbox returns the messages retrieved so far (since the last TakeMail).
func (a *Agent) Inbox() []mail.Stored { return a.inbox.Since(0) }

// Polls reports CheckMail calls issued.
func (a *Agent) Polls() int { return a.polls }

// Retrievals reports GetMail invocations.
func (a *Agent) Retrievals() int { return a.retrievals }

// Send submits a message through the cluster.
func (a *Agent) Send(to []names.Name, subject, body string) (mail.MessageID, error) {
	return a.cluster.Submit(a.user, append([]names.Name(nil), to...), subject, body)
}

// GetMail is the §3.1.2c retrieval algorithm (mail.Unavailable.Walk) on
// wall-clock time: walk the authority list; stop at the first live server that
// has been up since before the last check; collect from servers previously seen
// unavailable. A server whose poll fails — down, unreachable, or an injected
// drop — joins PreviouslyUnavailableServers and is retried on later retrievals;
// its buffered mail is untouched by the failed poll. The result is the caller's
// own copy; the agent keeps the messages in its inbox.
func (a *Agent) GetMail() []mail.Stored { return a.inbox.Since(a.walk()) }

// TakeMail is GetMail for an owner that passes the batch on and keeps the
// agent alive indefinitely (the wire server's per-user agents): the inbox —
// what GiveBack returned, then the walk's messages — is handed over, not
// copied, and the agent forgets it (the duplicate-suppression memory stays).
// The batch may be a slice a mailbox gave away (see mail.Inbox.Absorb); whoever
// holds it must not write to it.
func (a *Agent) TakeMail() []mail.Stored {
	a.walk()
	return a.inbox.Take(0)
}

// GiveBack returns the tail of the batch the last TakeMail handed over, for an
// owner that could not pass all of it on (a wire response carries at most
// MaxLine): the next TakeMail hands it over again, ahead of what its walk
// finds. The mailboxes no longer have these messages; until then the agent is
// the only place they are.
func (a *Agent) GiveBack(rest []mail.Stored) { a.inbox = rest }

// walk runs one retrieval and returns where in the inbox its messages start.
// The authority list is read once: a SetAuthority during the walk takes
// effect at the next one, and names that have left the list leave
// PreviouslyUnavailableServers with it — no walk could ever clear them.
func (a *Agent) walk() int {
	a.retrievals++
	before := len(a.inbox)
	current := time.Now().UnixNano()
	list := a.cluster.dir.Authority(a.user)
	a.prevUnavail.Walk((*poller)(a), list, a.lastChecking)
	for name := range a.prevUnavail {
		if !slices.Contains(list, name) {
			delete(a.prevUnavail, name)
		}
	}
	a.lastChecking = current
	return before
}

// PreviouslyUnavailable returns the agent's PreviouslyUnavailableServers
// list (§3.1.2c), in authority-list order.
func (a *Agent) PreviouslyUnavailable() []string {
	return a.prevUnavail.Listed(a.cluster.dir.Authority(a.user))
}

// LastCheckingTime returns the agent's LastCheckingTime[user] variable; the
// zero time before the first retrieval.
func (a *Agent) LastCheckingTime() time.Time {
	if a.lastChecking == 0 {
		return time.Time{}
	}
	return time.Unix(0, a.lastChecking)
}

// poller is the agent as the §3.1.2c walk sees it.
type poller Agent

// Poll implements mail.Poller. A name with no server process is passed by; a
// server that is down, or whose poll fails, is unavailable.
func (p *poller) Poll(name string) (mail.Visit, int64) {
	a := (*Agent)(p)
	s, ok := a.cluster.Server(name)
	if !ok {
		return mail.Absent, 0
	}
	if !s.Up() || a.poll(s) != nil {
		return mail.Down, 0
	}
	return mail.Polled, s.lastStart.Load()
}

// poll drains the user's mailbox on s into the inbox, dropping copies the
// agent has already seen and stamping the rest retrieved.
func (a *Agent) poll(s *Server) error {
	a.polls++
	msgs, err := s.CheckMail(a.user)
	if err != nil {
		return err
	}
	fresh := a.inbox.Newest(a.inbox.Absorb(&a.seen, msgs))
	for i := range fresh {
		a.cluster.trace.StampKey(fresh[i].ID.TraceKey(), obs.StageRetrieve, s.name)
	}
	return nil
}
