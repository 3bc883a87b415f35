package livenet

import (
	"errors"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

func mkKillMsg(seq uint64, to names.Name) mail.Message {
	return mail.Message{
		ID: mail.MessageID{Node: 1, Seq: seq},
		To: []names.Name{to}, Subject: "s", Body: "b",
	}
}

func durableCluster(t *testing.T) *Cluster {
	t.Helper()
	return NewClusterWith(ClusterConfig{DataDir: t.TempDir(), StoreShards: 2})
}

// TestKillRestartMemoryLosesMail is the negative control: on a memory-only
// cluster a kill-restart genuinely destroys buffered mail. This is the loss
// the durable store exists to prevent — if this test ever starts passing
// mail through, the durable soak proves nothing.
func TestKillRestartMemoryLosesMail(t *testing.T) {
	c := NewClusterWith(ClusterConfig{})
	defer c.Close()
	if _, err := c.AddServer("s1"); err != nil {
		t.Fatal(err)
	}
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	c.Directory().SetAuthority(alice, []string{"s1"})
	if _, err := c.Submit(alice, []names.Name{alice}, "s", "lost forever"); err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Kill(); err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Restart(); err != nil {
		t.Fatal(err)
	}
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.GetMail(); len(got) != 0 {
		t.Fatalf("memory cluster returned %d messages after kill-restart, want 0", len(got))
	}
}

// TestKillRestartDurableRecoversMail: the same kill-restart on a durable
// cluster loses nothing, and the recovered mailbox still suppresses
// duplicate deposits of already-delivered IDs.
func TestKillRestartDurableRecoversMail(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	if _, err := c.AddServer("s1"); err != nil {
		t.Fatal(err)
	}
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	c.Directory().SetAuthority(alice, []string{"s1"})
	id, err := c.Submit(alice, []names.Name{alice}, "s", "survives")
	if err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Kill(); err != nil {
		t.Fatal(err)
	}
	// While killed the server is down to callers, like a crashed one.
	s1, _ := c.Server("s1")
	if err := deposit(s1, mkKillMsg(99, alice), alice); !errors.Is(err, ErrServerDown) {
		t.Fatalf("deposit on killed server: err = %v, want ErrServerDown", err)
	}
	if err := mustServer(t, c, "s1").Restart(); err != nil {
		t.Fatal(err)
	}
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("recovered mail = %v, want exactly %v", got, id)
	}
	// Dedup memory recovered too: a replayed deposit of the retrieved
	// message must be suppressed by the mailbox, not just the agent.
	if err := deposit(s1, mkKillMsg(id.Seq, alice), alice); err != nil {
		t.Fatal(err)
	}
	if n, _ := s1.MailboxLen(alice); n != 0 {
		t.Fatalf("duplicate re-deposit stored after recovery (len=%d)", n)
	}
	m := c.Snapshot().Counters
	if m["kills"] != 1 || m["restarts"] != 1 {
		t.Fatalf("kills=%d restarts=%d, want 1/1", m["kills"], m["restarts"])
	}
}

// TestClusterReopenRecovers: a whole new cluster over the same DataDir
// (process restart, not just server restart) serves the old mail.
func TestClusterReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}

	c1 := NewClusterWith(ClusterConfig{DataDir: dir})
	if _, err := c1.AddServer("s1"); err != nil {
		t.Fatal(err)
	}
	c1.Directory().SetAuthority(alice, []string{"s1"})
	id, err := c1.Submit(alice, []names.Name{alice}, "s", "across processes")
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := NewClusterWith(ClusterConfig{DataDir: dir})
	defer c2.Close()
	if _, err := c2.AddServer("s1"); err != nil {
		t.Fatal(err)
	}
	c2.Directory().SetAuthority(alice, []string{"s1"})
	a, err := c2.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("reopened cluster mail = %v, want %v", got, id)
	}

	// The reopened cluster's ID allocator resumed above the recovered
	// suppression floor: a fresh submit must mint an unused ID and be
	// delivered, not be swallowed as a duplicate of the pre-restart message.
	id2, err := c2.Submit(alice, []names.Name{alice}, "s", "after reopen")
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("reopened cluster reused message ID %v", id)
	}
	got = a.GetMail()
	if len(got) != 1 || got[0].ID != id2 {
		t.Fatalf("post-reopen mail = %v, want %v (fresh submit suppressed as duplicate?)", got, id2)
	}
}

// TestQDepthFollowsTheStoreAcrossRestarts: "<server>.qdepth", the gauge JSQ(d)
// placement samples, is the buffered count after a reopen over a data
// directory with a backlog, after a durable kill-restart and after a memory
// one — not 0 and then negative, and not mail that died with the process.
func TestQDepthFollowsTheStoreAcrossRestarts(t *testing.T) {
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	start := func(cfg ClusterConfig) (*Cluster, *Server) {
		t.Helper()
		c := NewClusterWith(cfg)
		s, err := c.AddServer("s1")
		if err != nil {
			t.Fatal(err)
		}
		c.Directory().SetAuthority(alice, []string{"s1"})
		return c, s
	}
	check := func(c *Cluster, s *Server, when string, want int64) {
		t.Helper()
		n, err := s.MailboxLen(alice)
		if q := c.Obs().Gauge("s1.qdepth").Value(); err != nil || q != want || int64(n) != want {
			t.Fatalf("%s: s1.qdepth = %d, mailbox holds %d (%v), want %d", when, q, n, err, want)
		}
	}
	submit := func(c *Cluster, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Submit(alice, []names.Name{alice}, "s", "b"); err != nil {
				t.Fatal(err)
			}
		}
	}
	restart := func(c *Cluster) {
		t.Helper()
		if err := mustServer(t, c, "s1").Kill(); err != nil {
			t.Fatal(err)
		}
		if err := mustServer(t, c, "s1").Restart(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	c, s := start(ClusterConfig{DataDir: dir})
	submit(c, 2)
	check(c, s, "durable, two submits", 2)
	c.Close()

	c, s = start(ClusterConfig{DataDir: dir})
	defer c.Close()
	check(c, s, "reopened over the backlog", 2)
	submit(c, 1)
	restart(c)
	check(c, s, "durable kill-restart", 3)
	if got, err := s.CheckMail(alice); err != nil || len(got) != 3 {
		t.Fatalf("CheckMail after the restart: %d messages, %v", len(got), err)
	}
	check(c, s, "drained", 0)

	m, ms := start(ClusterConfig{})
	defer m.Close()
	submit(m, 1)
	check(m, ms, "memory, one submit", 1)
	restart(m)
	check(m, ms, "memory kill-restart", 0)
}

// TestKilledGenerationMapsToServerDown: a caller that snapshotted a run
// generation's quit channel, then observed its close only after a Kill AND a
// complete Restart, must get retryable ErrServerDown — by then the killed
// flag has already flipped back to false, and reporting terminal ErrClosed
// would make a client treat a healthy cluster as shut down.
func TestKilledGenerationMapsToServerDown(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	s, err := c.AddServer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s.runMu.RLock()
	gen := s.quit
	s.runMu.RUnlock()
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := s.downErr(gen); !errors.Is(err, ErrServerDown) {
		t.Fatalf("downErr(superseded generation) = %v, want ErrServerDown", err)
	}
	// The current generation still maps a cluster shutdown to ErrClosed.
	s.runMu.RLock()
	cur := s.quit
	s.runMu.RUnlock()
	c.Close()
	if err := s.downErr(cur); !errors.Is(err, ErrClosed) {
		t.Fatalf("downErr(current generation after Close) = %v, want ErrClosed", err)
	}
}

// TestDurabilityStatsCumulativeAcrossRestart: kill-restart swaps in a fresh
// store with zeroed WAL counters; DurabilityStats must keep counting the
// closed store's work or chaos-mode bench numbers under-report the write
// path.
func TestDurabilityStatsCumulativeAcrossRestart(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	if _, err := c.AddServer("s1"); err != nil {
		t.Fatal(err)
	}
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	c.Directory().SetAuthority(alice, []string{"s1"})
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(alice, []names.Name{alice}, "s", "pre-kill"); err != nil {
			t.Fatal(err)
		}
	}
	pre, ok := c.DurabilityStats()
	if !ok || pre.Appends == 0 {
		t.Fatalf("pre-kill stats = %+v ok=%v, want appends > 0", pre, ok)
	}
	if err := mustServer(t, c, "s1").Kill(); err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(alice, []names.Name{alice}, "s", "post-restart"); err != nil {
		t.Fatal(err)
	}
	post, _ := c.DurabilityStats()
	if post.Appends < pre.Appends+1 {
		t.Fatalf("Appends = %d after kill-restart, want >= %d (stats must be cumulative)",
			post.Appends, pre.Appends+1)
	}
	if post.Bytes < pre.Bytes {
		t.Fatalf("Bytes = %d after kill-restart, want >= pre-kill %d", post.Bytes, pre.Bytes)
	}
}

// TestDurabilityStatsCountsLatchedStores: a body past the WAL's 16 MiB
// record cap latches its store's log — the server keeps taking mail it never
// journals — and DurabilityStats counts that store as Latched until a
// kill-restart opens a fresh store, which journals again.
func TestDurabilityStatsCountsLatchedStores(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	for _, name := range []string{"s1", "s2"} {
		if _, err := c.AddServer(name); err != nil {
			t.Fatal(err)
		}
	}
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	c.Directory().SetAuthority(alice, []string{"s1"})
	if _, err := c.Submit(alice, []names.Name{alice}, "s", "small"); err != nil {
		t.Fatal(err)
	}
	if ws, _ := c.DurabilityStats(); ws.Latched != 0 {
		t.Fatalf("Latched = %d before the oversize deposit, want 0", ws.Latched)
	}
	if _, err := c.Submit(alice, []names.Name{alice}, "s", strings.Repeat("x", 16<<20+1)); err != nil {
		t.Fatal(err)
	}
	if ws, _ := c.DurabilityStats(); ws.Latched != 1 {
		t.Fatalf("Latched = %d after the oversize deposit, want 1", ws.Latched)
	}
	if err := mustServer(t, c, "s1").Kill(); err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Restart(); err != nil {
		t.Fatal(err)
	}
	if ws, _ := c.DurabilityStats(); ws.Latched != 0 {
		t.Fatalf("Latched = %d after kill-restart, want 0", ws.Latched)
	}
}

// TestDurableLastStartDrivesPollEfficiency: after a kill-restart the
// recovered store's LastStartTime is the server's §3.1.2c start stamp — the
// retrieval right after the restart walks past the restarted primary to
// collect failed-over mail, and the next failure-free retrieval is back to
// exactly one poll.
func TestDurableLastStartDrivesPollEfficiency(t *testing.T) {
	c := durableCluster(t)
	defer c.Close()
	for _, n := range []string{"s1", "s2"} {
		if _, err := c.AddServer(n); err != nil {
			t.Fatal(err)
		}
	}
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	c.Directory().SetAuthority(alice, []string{"s1", "s2"})
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	a.GetMail() // establish LastCheckingTime after both servers' starts

	id1, err := c.Submit(alice, []names.Name{alice}, "s", "before kill")
	if err != nil {
		t.Fatal(err)
	}
	if err := mustServer(t, c, "s1").Kill(); err != nil {
		t.Fatal(err)
	}
	id2, err := c.Submit(alice, []names.Name{alice}, "s", "failed over")
	if err != nil {
		t.Fatal(err) // deposits at s2: s1 is down
	}
	if err := mustServer(t, c, "s1").Restart(); err != nil {
		t.Fatal(err)
	}

	// The restart stamped a LastStartTime after the agent's LastCheckingTime,
	// which is what forces the walk past the recovered s1 to find id2 at s2.
	got := a.GetMail()
	if len(got) != 2 {
		t.Fatalf("retrieved %d messages, want 2 (%v and %v)", len(got), id1, id2)
	}

	// Failure-free steady state: one poll per retrieval, because s1 has now
	// been up since before the last check.
	before := a.Polls()
	a.GetMail()
	if polls := a.Polls() - before; polls != 1 {
		t.Fatalf("steady-state retrieval used %d polls, want 1", polls)
	}
}

// mustServer returns the cluster's server by name.
func mustServer(t *testing.T, c *Cluster, name string) *Server {
	t.Helper()
	s, ok := c.Server(name)
	if !ok {
		t.Fatalf("no server %q", name)
	}
	return s
}
