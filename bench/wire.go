package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/wire"
)

// wirePop is the population of the wire workloads: 65 536 users on 64
// livenet servers (4 regions × 16), two-server authority lists. It is not
// scaled: the directory and the agent table are part of what is measured.
var wirePop = loadgen.Population{
	Users: 65_536, Regions: 4, HostsPerRegion: 32, ServersPerRegion: 16, AuthorityLen: 2,
}

// wireStoreShards is the shard count of each of the 64 stores. maild's
// default of 16 would put 1024 shard logs in this one process; creating and
// fsyncing that many files took 0.4–1.5 s depending on the state of the
// shared host's disk, which made set-up time a measure of the host. Four
// keeps sharding in play at a quarter of that.
const wireStoreShards = 4

// wireEnv is the deployable path: an in-process wire server over durable
// livenet servers (DataDir, fsync never), every user registered over the
// wire.
type wireEnv struct {
	srv   *wire.Server
	users []string // user index → name
}

func serverName(gs int) string { return fmt.Sprintf("S%d", gs) }

// authority is user u's two-server list inside its region, the layout
// loadgen's live drivers use.
func authority(u int) []string {
	r := wirePop.RegionOf(u)
	start := wirePop.HostOf(u) % wirePop.ServersPerRegion
	out := make([]string, wirePop.AuthorityLen)
	for i := range out {
		out[i] = serverName(r*wirePop.ServersPerRegion + (start+i)%wirePop.ServersPerRegion)
	}
	return out
}

func startWire(dir string) (*wireEnv, error) {
	names := make([]string, wirePop.TotalServers())
	for gs := range names {
		names[gs] = serverName(gs)
	}
	srv, err := wire.NewServerWith("127.0.0.1:0", names, wire.ServerConfig{
		Cluster: livenet.ClusterConfig{DataDir: dir, Fsync: mailstore.FsyncNever, StoreShards: wireStoreShards},
	})
	if err != nil {
		return nil, err
	}
	e := &wireEnv{srv: srv, users: make([]string, wirePop.Users)}
	k, err := e.open(64, nil, 0)
	if err != nil {
		srv.Close()
		return nil, err
	}
	var regErr error
	for u := range e.users {
		e.users[u] = wirePop.Name(u).String()
		k.do(wire.Request{Op: "register", User: e.users[u], Servers: authority(u)}, "", 0,
			func(_ wire.Response, err error) {
				if err != nil && regErr == nil {
					regErr = err
				}
			})
	}
	if err := k.close(); err != nil && regErr == nil {
		regErr = err
	}
	if regErr != nil {
		srv.Close()
		return nil, fmt.Errorf("register: %w", regErr)
	}
	return e, nil
}

func (e *wireEnv) close() { e.srv.Close() }

// conn is one client connection used as a window of pipelined requests. A
// reaper goroutine takes the responses in the order the requests were
// written and hands each to its callback, so callbacks of one conn never
// run concurrently.
type conn struct {
	c   *wire.Client
	pl  *wire.Pipeline
	rec *recorder
	par int // parent span of this conn's request spans

	// wmu orders writers: a request's place in q must be its place on the
	// connection. It is held while Pipeline.Do waits for a window slot;
	// slots are released by the pipeline's own reader goroutine, which
	// never takes wmu, so the wait cannot deadlock.
	wmu  sync.Mutex
	q    chan pending
	wg   sync.WaitGroup // requests whose callback has not returned yet
	done chan struct{}
}

type pending struct {
	f    *wire.Future
	on   func(wire.Response, error)
	name string
	req  int64
	from int64
}

func (e *wireEnv) open(depth int, rec *recorder, parent int) (*conn, error) {
	c, err := wire.Dial(e.srv.Addr())
	if err != nil {
		return nil, err
	}
	pl, err := c.Pipeline(context.Background(), depth)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	if !c.BinaryFraming() {
		_ = pl.Close()
		_ = c.Close()
		return nil, fmt.Errorf("server declined binary framing")
	}
	// q holds at most the requests in flight, so depth slots never block
	// the writer for longer than the window itself does.
	k := &conn{c: c, pl: pl, rec: rec, par: parent, q: make(chan pending, depth), done: make(chan struct{})}
	go k.reap()
	return k, nil
}

func (k *conn) reap() {
	defer close(k.done)
	for p := range k.q {
		resp, err := p.f.Response()
		if p.name != "" {
			k.rec.add(k.par, p.name, p.req, p.from, k.rec.now(), 0)
		}
		p.on(resp, err)
		k.wg.Done()
	}
}

// do sends one request, blocking while the window is full. name, when not
// empty, records a span from the call to the response in traced passes.
func (k *conn) do(req wire.Request, name string, reqID int64, on func(wire.Response, error)) {
	if k.rec == nil {
		name = ""
	}
	k.wg.Add(1)
	k.wmu.Lock()
	from := k.rec.now()
	k.q <- pending{f: k.pl.Do(req), on: on, name: name, req: reqID, from: from}
	k.wmu.Unlock()
}

// flush waits until every request sent so far has been answered and its
// callback has returned.
func (k *conn) flush() { k.wg.Wait() }

func (k *conn) close() error {
	k.flush()
	close(k.q)
	<-k.done
	err := k.pl.Close()
	if cerr := k.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// delivery is what one request handed to or took from one mailbox.
type delivery struct {
	u   int
	ids []string
}

// ledger is the exactly-once check of the wire workloads: every acked ID is
// credited to whichever getmail returns it — none missing, none twice, none
// that was never acked. Requests only append here; reconcile runs the
// audit outside the measured phase.
type ledger struct {
	owed, got []delivery
}

func (l *ledger) reconcile(c *passCtx) {
	aud := loadgen.NewAuditors(wirePop.AuthorityLen, false)
	for _, d := range l.owed {
		for _, id := range d.ids {
			aud.RecordSubmit(id, []int{d.u})
		}
	}
	for _, d := range l.got {
		aud.CreditRetrieved(d.u, d.ids)
	}
	aud.FinishOutstanding()
	c.violations("ledger", aud.Counts(), aud.Violations())
	l.owed, l.got = nil, nil
}

// Sizes of wire_ingest that are not scaled.
const (
	ingestBatch   = 16  // messages per tbatch frame
	ingestBody    = 512 // bytes
	ingestActive  = 16  // concurrently active recipients
	ingestPerRcpt = 64  // messages a recipient receives before it is drained and replaced
	ingestDepth   = 8   // pipeline depth
	ingestSubject = "b"
)

// ingest is wire_ingest's generator: one sender, 16 active recipients; each
// batch goes to the next recipient in turn, and a recipient that has
// received 64 messages is drained by one getmail and replaced by the next
// user of a seeded permutation, so live mail stays near 600 KB while the
// directory and agent table keep being touched.
type ingest struct {
	env    *wireEnv
	k      *conn
	ops    *opLog
	perm   []int
	next   int
	sender int
	body   string
	slots  [ingestActive]struct{ u, n int }
	turn   int

	// appended by the conn's reaper, read after flush
	led       ledger
	attempted int64
	failed    int64
}

func newIngest(env *wireEnv, k *conn, seed int64, ops *opLog) *ingest {
	rng := rand.New(rand.NewSource(seed))
	g := &ingest{env: env, k: k, ops: ops, perm: rng.Perm(len(env.users))}
	g.sender = g.take()
	b := make([]byte, ingestBody)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	g.body = string(b)
	for i := range g.slots {
		g.slots[i].u = g.take()
	}
	return g
}

func (g *ingest) take() int {
	u := g.perm[g.next%len(g.perm)]
	g.next++
	return u
}

// submit sends n batches. With drain, full recipients are read and
// replaced; without, the mail stays where it is (the recovery backlog).
func (g *ingest) submit(n int, drain bool) {
	for i := 0; i < n; i++ {
		s := &g.slots[g.turn%ingestActive]
		g.turn++
		u := s.u
		to := []string{g.env.users[u]}
		msgs := make([]wire.BatchMsg, ingestBatch)
		for j := range msgs {
			msgs[j] = wire.BatchMsg{To: to, Subject: ingestSubject, Body: g.body}
			g.ops.add(g.sender, []int{u}, ingestSubject, g.body)
		}
		g.k.do(wire.Request{Op: "tbatch", From: g.env.users[g.sender], Msgs: msgs}, "wire.tbatch", int64(g.turn),
			func(resp wire.Response, err error) {
				g.attempted += ingestBatch
				if err != nil {
					g.failed += ingestBatch
					return
				}
				g.failed += int64(len(resp.Failed))
				ids := resp.IDs[:0:0]
				for _, id := range resp.IDs {
					if id != "" {
						ids = append(ids, id)
					}
				}
				if drain {
					g.led.owed = append(g.led.owed, delivery{u, ids})
				}
			})
		if s.n += ingestBatch; s.n >= ingestPerRcpt {
			if drain {
				g.getmail(u)
			}
			s.u, s.n = g.take(), 0
		}
	}
}

func (g *ingest) getmail(u int) {
	g.k.do(wire.Request{Op: "getmail", User: g.env.users[u]}, "wire.getmail", int64(g.turn),
		func(resp wire.Response, err error) {
			g.attempted++
			if err != nil {
				g.failed++
				return
			}
			ids := make([]string, len(resp.Messages))
			for i, m := range resp.Messages {
				ids[i] = m.ID
			}
			g.led.got = append(g.led.got, delivery{u, ids})
		})
}

// drainAll reads every active recipient that holds mail and waits.
func (g *ingest) drainAll() {
	for i := range g.slots {
		if g.slots[i].n > 0 {
			g.getmail(g.slots[i].u)
			g.slots[i].n = 0
		}
	}
	g.k.flush()
}

// runWireIngest is the closed, write-heavy loop at full speed. After the
// measured phase it drains every mailbox to measure what the process
// retains, then leaves a backlog undrained, closes the server and reopens
// every store cold: acked must mean durable, message for message.
func runWireIngest(c *passCtx) error {
	warm := c.n(40_000, 2*ingestPerRcpt) / ingestBatch
	batches := c.n(600_000, 4*ingestPerRcpt) / ingestBatch
	backlog := c.n(100_000, 2*ingestPerRcpt) / ingestBatch
	msgs := float64(batches * ingestBatch)
	c.sizes["users"], c.sizes["servers"] = float64(wirePop.Users), float64(wirePop.TotalServers())
	c.sizes["warmup_msgs"], c.sizes["messages"] = float64(warm*ingestBatch), msgs
	c.sizes["backlog_msgs"] = float64(backlog * ingestBatch)
	c.sizes["batch"], c.sizes["body_bytes"], c.sizes["pipeline_depth"] = ingestBatch, ingestBody, ingestDepth

	dir, err := c.scratch()
	if err != nil {
		return err
	}
	c.beginSetup()
	env, err := startWire(dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	root := c.rec.begin(0, "round", 0)
	k, err := env.open(ingestDepth, c.rec, root)
	if err != nil {
		return err
	}
	g := newIngest(env, k, c.seed, c.ops)
	g.submit(warm, true)
	g.drainAll()
	g.led.reconcile(c)
	base := heapAfterGC()
	if c.endSetup() {
		return k.close()
	}

	u0 := readUsage()
	k.par = c.rec.begin(root, "measure", 0)
	g.submit(batches, true)
	k.flush()
	c.rec.end(k.par)
	u := readUsage().since(u0)
	c.closedLoop(u, msgs)

	k.par = root
	g.drainAll()
	g.led.reconcile(c)
	c.set("retained_bytes_per_msg", (float64(heapAfterGC())-float64(base))/msgs)

	g.submit(backlog, false)
	k.flush()
	c.attempted += g.attempted
	c.failed += g.failed
	if g.failed > 0 {
		c.failf("%d of %d wire operations failed", g.failed, g.attempted)
	}
	ws, _ := env.srv.Cluster().DurabilityStats()
	accepted := float64((warm+batches+backlog)*ingestBatch) * float64(len(ingestSubject)+ingestBody)
	c.set("wal_bytes_per_user_byte", float64(ws.Bytes)/accepted)
	spool := env.srv.Cluster().SpoolDepth()
	if err := k.close(); err != nil {
		return err
	}
	c.rec.end(root)
	env.close()
	closed = true

	var passes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		recovered, err := reopenStores(dir)
		if err != nil {
			return err
		}
		passes = append(passes, time.Since(t0).Seconds())
		if want := int64(backlog * ingestBatch); recovered != want {
			c.failed++
			c.failf("recovery: %d messages on disk, %d acked and undrained", recovered, want)
		}
	}
	c.set("recovery_s", median(passes))

	if c.rec != nil {
		c.set("livenet.spool_depth_max", float64(spool))
		c.set("mailstore.wal_compactions", float64(ws.Compactions))
		c.set("mailstore.wal_syncs", float64(ws.Syncs))
		dur, self := spanTotals(c.rec.snapshot())
		c.set("loadgen.self_share", float64(self["measure"])/float64(dur["measure"]))
	}
	return nil
}

// reopenStores opens every store directory under dir cold — the path a
// restarted deployment takes — and returns the messages recovery rebuilt.
func reopenStores(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var msgs int64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		st, err := mailstore.Open(filepath.Join(dir, e.Name()), 0)
		if err != nil {
			return 0, fmt.Errorf("reopen %s: %w", e.Name(), err)
		}
		if rs, ok := st.RecoveryStats(); ok {
			msgs += rs.Messages
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	return msgs, nil
}

// wire_mixed's rate ladder, submits per second, and the reference rate at
// which the end-to-end latencies and costs are reported.
var mixedLadder = []int{3000, 6000, 9000, 12000}

const (
	mixedReference = 6000
	mixedPolls     = 3   // background getmail polls per submit
	mixedSendDepth = 64  // sender window, requests
	mixedReadDepth = 256 // reader window: about five reads per submit
	// A ladder step is ok when nothing failed, the median delivery took at
	// most this long, and the generator ended the step no later than
	// mixedLateOK behind schedule (no growing backlog).
	mixedDeliverOK = 5 * time.Millisecond
	mixedLateOK    = 50 * time.Millisecond
	// loadgen's default message shape
	mixedBodyMin, mixedBodyMax, mixedRcpts = 64, 2048, 3
)

// stepStats collects one ladder step. ack is written by the sender conn's
// reaper, deliver and poll by the reader conn's; the generator reads them
// after both conns are flushed.
type stepStats struct {
	from               time.Time // samples whose request was due earlier are warm-up
	ack, deliver, poll []float64 // µs, due → response
	acked              int
}

type mixed struct {
	env        *wireEnv
	send, read *conn
	rec        *recorder
	ops        *opLog
	rng        *rand.Rand
	big        string

	mu  sync.Mutex
	due map[string]time.Time // message ID → when its submit was due

	step *stepStats
	// owed is appended by the sender's reaper, got by the reader's.
	led                ledger
	sendFail, readFail int64
	submits, reads     int64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// submit issues message i: a seeded body and one to three recipients. Its
// ack triggers one getmail per recipient.
func (m *mixed) submit(i int64, due time.Time) {
	from := m.rng.Intn(len(m.env.users))
	rcpts := make([]int, 1+m.rng.Intn(mixedRcpts))
	to := make([]string, len(rcpts))
	for j := range rcpts {
	draw:
		rcpts[j] = m.rng.Intn(len(m.env.users))
		for _, u := range rcpts[:j] {
			if u == rcpts[j] {
				goto draw // recipients are distinct: each owes exactly one copy
			}
		}
		to[j] = m.env.users[rcpts[j]]
	}
	body := m.big[:mixedBodyMin+m.rng.Intn(mixedBodyMax-mixedBodyMin+1)]
	m.ops.add(from, rcpts, "mixed", body)
	st := m.step
	root := m.rec.add(0, "msg", i, m.rec.at(due), -1, 0)
	m.submits++
	m.send.do(wire.Request{Op: "submit", From: m.env.users[from], To: to, Subject: "mixed", Body: body}, "", i,
		func(resp wire.Response, err error) {
			now := time.Now()
			if err != nil {
				m.sendFail++
				return
			}
			m.rec.add(root, "submit_ack", i, m.rec.at(due), m.rec.at(now), 0)
			m.mu.Lock()
			m.due[resp.ID] = due
			m.mu.Unlock()
			if !due.Before(st.from) {
				st.ack = append(st.ack, us(now.Sub(due)))
				st.acked++
			}
			left := len(rcpts)
			for _, u := range rcpts {
				m.led.owed = append(m.led.owed, delivery{u, []string{resp.ID}})
				issued := m.rec.now()
				m.getmail(u, st, time.Time{}, func() {
					m.rec.add(root, "getmail", i, issued, m.rec.now(), 0)
					if left--; left == 0 {
						m.rec.end(root)
					}
				})
			}
		})
}

// getmail reads mailbox u. pollDue is set for a background poll, which is
// timed from that instant; every returned message is timed from its own
// submit's due instant.
func (m *mixed) getmail(u int, st *stepStats, pollDue time.Time, then func()) {
	m.read.do(wire.Request{Op: "getmail", User: m.env.users[u]}, "", 0,
		func(resp wire.Response, err error) {
			now := time.Now()
			m.reads++
			if then != nil {
				then()
			}
			if err != nil {
				m.readFail++
				return
			}
			if !pollDue.IsZero() && !pollDue.Before(st.from) {
				st.poll = append(st.poll, us(now.Sub(pollDue)))
			}
			if len(resp.Messages) == 0 {
				return
			}
			ids := make([]string, len(resp.Messages))
			m.mu.Lock()
			for i, msg := range resp.Messages {
				ids[i] = msg.ID
				if due, ok := m.due[msg.ID]; ok && !due.Before(st.from) {
					st.deliver = append(st.deliver, us(now.Sub(due)))
				}
			}
			m.mu.Unlock()
			m.led.got = append(m.led.got, delivery{u, ids})
		})
}

type stepResult struct {
	stats     *stepStats
	use       usage // the measured part of the step
	lateMax   time.Duration
	lateLast  time.Duration
	failed    int64
	submitted int
}

// runStep offers load at rate submits/s for warm+dur (rate 0: count submits
// unpaced), waits for everything in flight, and returns what it saw.
func (m *mixed) runStep(rate int, warm, dur time.Duration, count int) stepResult {
	p := newPacer(rate)
	if rate > 0 {
		count = int(float64(rate) * (warm + dur).Seconds())
	} else {
		warm = 0
	}
	st := &stepStats{from: p.start.Add(warm)}
	m.step = st
	fail0 := m.sendFail + m.readFail
	var u0 usage
	measuring := false
	for i := 0; i < count; i++ {
		due := p.next()
		if !measuring && !due.Before(st.from) {
			measuring = true
			u0 = readUsage()
		}
		m.submit(int64(i), due)
		for j := 0; j < mixedPolls; j++ {
			m.getmail(m.rng.Intn(len(m.env.users)), st, due, nil)
		}
	}
	m.send.flush() // acks issue reads, so the sender drains first
	m.read.flush()
	return stepResult{
		stats: st, use: readUsage().since(u0),
		lateMax: p.lateMax, lateLast: p.lateLast,
		failed: m.sendFail + m.readFail - fail0, submitted: count,
	}
}

func p50(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func p99(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.99)
}

// runWireMixed is the open loop: reads beside writes through single frames,
// at fixed sub-critical rates and then unpaced to find where it saturates.
func runWireMixed(c *passCtx) error {
	warm := time.Duration(float64(time.Second) * c.scale)
	dur := time.Duration(float64(5*time.Second) * c.scale)
	unpaced := c.n(100_000, 50)
	c.sizes["users"], c.sizes["servers"] = float64(wirePop.Users), float64(wirePop.TotalServers())
	c.sizes["step_warmup_s"], c.sizes["step_measured_s"] = warm.Seconds(), dur.Seconds()
	c.sizes["unpaced_submits"], c.sizes["polls_per_submit"] = float64(unpaced), mixedPolls

	dir, err := c.scratch()
	if err != nil {
		return err
	}
	c.beginSetup()
	env, err := startWire(dir)
	if err != nil {
		return err
	}
	defer env.close()
	m := &mixed{
		env: env, rec: c.rec, ops: c.ops, rng: rand.New(rand.NewSource(c.seed)),
		big: strings.Repeat("the quick brown fox jumps over the lazy dog ", 47)[:mixedBodyMax],
		due: make(map[string]time.Time),
	}
	if m.send, err = env.open(mixedSendDepth, nil, 0); err != nil {
		return err
	}
	if m.read, err = env.open(mixedReadDepth, nil, 0); err != nil {
		return err
	}
	m.runStep(mixedLadder[0], 0, warm, 0) // warm up code paths and connections
	if c.endSetup() {
		if err := m.send.close(); err != nil {
			return err
		}
		return m.read.close()
	}

	maxOK := 0.0
	for _, rate := range mixedLadder {
		r := m.runStep(rate, warm, dur, 0)
		c.phase(r.use)
		st := r.stats
		if len(st.ack) == 0 || len(st.deliver) == 0 || len(st.poll) == 0 {
			c.failf("rate %d: no latency samples", rate)
			continue
		}
		deliver := p50(st.deliver)
		if r.failed == 0 && deliver <= us(mixedDeliverOK) && r.lateLast <= mixedLateOK {
			maxOK = float64(rate)
		}
		if rate == mixedReference {
			c.set("submit_ack_p50_us", p50(st.ack))
			c.set("deliver_p50_us", deliver)
			c.set("getmail_p50_us", p50(st.poll))
			c.costs(r.use, float64(st.acked))
			if c.rec != nil {
				c.set("wire.submit_ack_p99_us", p99(st.ack))
				c.set("wire.deliver_p99_us", p99(st.deliver))
				c.set("wire.getmail_p99_us", p99(st.poll))
				c.set("wire.gen_late_max_ms", float64(r.lateMax)/float64(time.Millisecond))
			}
		}
		if c.rec != nil {
			c.set(fmt.Sprintf("wire.deliver_p50_us.r%d", rate), deliver)
		}
	}
	c.set("max_rate_ok", maxOK)

	// Unpaced: the windows are the only brake, so the acked rate is what
	// the mixed traffic saturates at — the knee as a number, not a step.
	r := m.runStep(0, 0, 0, unpaced)
	c.phase(r.use)
	c.set("msgs_per_s", float64(r.stats.acked)/r.use.wall.Seconds())

	c.attempted += m.submits + m.reads
	c.failed += m.sendFail + m.readFail
	if n := m.sendFail + m.readFail; n > 0 {
		c.failf("%d wire operations failed", n)
	}
	m.led.reconcile(c)
	if c.rec != nil {
		c.set("livenet.spool_depth_max", float64(env.srv.Cluster().SpoolDepth()))
		ws, _ := env.srv.Cluster().DurabilityStats()
		c.set("mailstore.wal_compactions", float64(ws.Compactions))
		c.set("mailstore.wal_syncs", float64(ws.Syncs))
		// The generator's share: how much of a message's life is not
		// covered by a request the benchmark was waiting on.
		dur, self := spanTotals(c.rec.snapshot())
		c.set("loadgen.self_share", ratio(float64(self["msg"]), float64(dur["msg"])))
	}
	if err := m.send.close(); err != nil {
		return err
	}
	return m.read.close()
}
