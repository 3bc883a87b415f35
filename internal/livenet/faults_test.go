package livenet

import (
	"errors"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// TestSubmitMultiRecipientPartialFailure: a failing recipient must not
// abort the rest of the fan-out. All recipients are attempted, the real
// message ID comes back, and the per-recipient failures arrive joined.
func TestSubmitMultiRecipientPartialFailure(t *testing.T) {
	c := newCluster(t)
	ghost := names.MustParse("R1.h9.ghost") // no authority list registered
	id, err := c.Submit(bob, []names.Name{alice, ghost, alice}, "fanout", "b")
	if err == nil {
		t.Fatal("submit with unresolvable recipient reported no error")
	}
	if !errors.Is(err, ErrNoAuthority) {
		t.Errorf("err = %v, want ErrNoAuthority in the join", err)
	}
	if id == (mail.MessageID{}) {
		t.Error("no real message ID returned alongside the error")
	}
	// The deliverable recipient's copy went through regardless.
	a, _ := c.NewAgent(alice)
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "fanout" || got[0].ID != id {
		t.Fatalf("deliverable recipient got %v, want the fanout message", got)
	}
}

// TestCrashBetweenGetMailsRecoversMissedWindow is the §3.1.2c failure
// walk-through on the live transport: mail lands on the primary, the
// primary crashes before the recipient polls, new mail fails over to the
// secondary, and the recovery's fresh LastStartTime forces the deeper walk
// that surfaces the missed window. PreviouslyUnavailableServers tracks the
// crashed server in between.
func TestCrashBetweenGetMailsRecoversMissedWindow(t *testing.T) {
	c := newCluster(t)
	a, _ := c.NewAgent(alice)
	b, _ := c.NewAgent(bob)
	a.GetMail() // establish LastCheckingTime

	if _, err := b.Send([]names.Name{alice}, "early", "b"); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Server("s1")
	s1.Crash()

	// Poll while the primary (holding "early") is down: nothing comes back,
	// and s1 joins PreviouslyUnavailableServers.
	if got := a.GetMail(); len(got) != 0 {
		t.Fatalf("retrieved %v while the copy's only holder is down", got)
	}
	if pu := a.PreviouslyUnavailable(); len(pu) != 1 || pu[0] != "s1" {
		t.Fatalf("PreviouslyUnavailable = %v, want [s1]", pu)
	}
	checkpoint := a.LastCheckingTime()
	if checkpoint.IsZero() {
		t.Fatal("LastCheckingTime not advanced by the failed walk")
	}

	// New mail fails over to the secondary and is found there.
	if _, err := b.Send([]names.Name{alice}, "later", "b"); err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "later" {
		t.Fatalf("failover window retrieved %v, want [later]", got)
	}

	time.Sleep(time.Millisecond) // make the recovery stamp measurably newer
	s1.Recover()
	if !s1.LastStart().After(checkpoint) {
		t.Fatal("recovery did not stamp a fresh LastStartTime")
	}
	got = a.GetMail()
	if len(got) != 1 || got[0].Subject != "early" {
		t.Fatalf("post-recovery walk retrieved %v, want the missed [early]", got)
	}
	if pu := a.PreviouslyUnavailable(); len(pu) != 0 {
		t.Errorf("PreviouslyUnavailable = %v after recovery, want empty", pu)
	}
	if len(a.Inbox()) != 2 {
		t.Errorf("inbox = %d messages, want exactly 2 (no loss, no duplicates)", len(a.Inbox()))
	}
}

// TestUnreachableServerStampsLastStart: a link failure is unavailability
// under §3.1.2c ("disconnected from the network"), so restoring
// reachability must stamp LastStartTime exactly like a crash recovery —
// otherwise mail that failed over past the unreachable server would be
// stranded beyond the GetMail stop point.
func TestUnreachableServerStampsLastStart(t *testing.T) {
	c := newCluster(t)
	a, _ := c.NewAgent(alice)
	b, _ := c.NewAgent(bob)
	a.GetMail()

	s1, _ := c.Server("s1")
	s1.SetReachable(false)
	if s1.Reachable() {
		t.Fatal("SetReachable(false) not reflected")
	}
	if _, err := b.Send([]names.Name{alice}, "around", "b"); err != nil {
		t.Fatalf("failover around unreachable server: %v", err)
	}
	s2, _ := c.Server("s2")
	if n, _ := s2.MailboxLen(alice); n != 1 {
		t.Fatalf("secondary holds %d copies, want 1", n)
	}
	if c.Snapshot().Counters["deposit_failovers"] == 0 {
		t.Error("deposit_failovers counter did not move")
	}
	// The walk marks the unreachable primary previously-unavailable.
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "around" {
		t.Fatalf("GetMail with unreachable primary = %v", got)
	}
	if pu := a.PreviouslyUnavailable(); len(pu) != 1 || pu[0] != "s1" {
		t.Fatalf("PreviouslyUnavailable = %v, want [s1]", pu)
	}

	before := s1.LastStart()
	time.Sleep(time.Millisecond)
	s1.SetReachable(true)
	if !s1.LastStart().After(before) {
		t.Fatal("restoring reachability did not stamp LastStartTime")
	}
	a.GetMail()
	if pu := a.PreviouslyUnavailable(); len(pu) != 0 {
		t.Errorf("PreviouslyUnavailable = %v after restore, want empty", pu)
	}
}

// TestInjectedDropsNeverFailOver: transient faults are retried on the SAME
// server and then surfaced — failing over past a live, stable server would
// deposit beyond the recipient's GetMail stop point and strand the copy.
func TestInjectedDropsNeverFailOver(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Server("s1")
	s1.SetDropProb(1)
	_, err := c.Submit(bob, []names.Name{alice}, "dropped", "b")
	if err == nil {
		t.Fatal("submit through a fully lossy primary succeeded without spool")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", err)
	}
	for _, name := range []string{"s2", "s3"} {
		s, _ := c.Server(name)
		if n, _ := s.MailboxLen(alice); n != 0 {
			t.Errorf("%s holds %d copies — transient fault caused failover", name, n)
		}
	}
	if got := c.Snapshot().Counters["deposit_retries"]; got != maxTransientRetries {
		t.Errorf("deposit_retries = %d, want %d", got, maxTransientRetries)
	}
	s1.SetDropProb(0)
	if _, err := c.Submit(bob, []names.Name{alice}, "clear", "b"); err != nil {
		t.Fatalf("submit after clearing drops: %v", err)
	}
}

// TestSpoolRedeliversAfterTotalOutage: with the spool enabled, a submit
// during a full outage is accepted and redelivered once a server returns —
// the live-path analogue of the paper's buffering guarantee.
func TestSpoolRedeliversAfterTotalOutage(t *testing.T) {
	c := newCluster(t)
	if err := c.EnableSpool(SpoolConfig{
		BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		s, _ := c.Server(name)
		s.Crash()
	}
	id, err := c.Submit(bob, []names.Name{alice}, "buffered", "b")
	if err != nil {
		t.Fatalf("submit during total outage with spool: %v", err)
	}
	if c.SpoolDepth() != 1 {
		t.Fatalf("spool depth = %d, want 1", c.SpoolDepth())
	}
	if c.Snapshot().Counters["submit_spooled"] != 1 {
		t.Errorf("submit_spooled = %d, want 1", c.Snapshot().Counters["submit_spooled"])
	}

	s2, _ := c.Server("s2")
	s2.Recover()
	deadline := time.Now().Add(5 * time.Second)
	for c.SpoolDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.SpoolDepth() != 0 {
		t.Fatal("spool did not drain after recovery")
	}
	if c.Snapshot().Counters["spool_redelivered"] != 1 {
		t.Errorf("spool_redelivered = %d, want 1", c.Snapshot().Counters["spool_redelivered"])
	}
	a, _ := c.NewAgent(alice)
	got := a.GetMail()
	if len(got) != 1 || got[0].ID != id || got[0].Subject != "buffered" {
		t.Fatalf("redelivered retrieval = %v", got)
	}
}

// TestEnableSpoolValidation covers double-enable and enable-after-close.
func TestEnableSpoolValidation(t *testing.T) {
	c := newCluster(t)
	if err := c.EnableSpool(SpoolConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSpool(SpoolConfig{}); err == nil {
		t.Error("double EnableSpool accepted")
	}
	c2 := NewClusterWith(ClusterConfig{})
	c2.Close()
	if err := c2.EnableSpool(SpoolConfig{}); err == nil {
		t.Error("EnableSpool on closed cluster accepted")
	}
}

// TestServerLatencyInjection: injected latency slows calls without failing
// them.
func TestServerLatencyInjection(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Server("s1")
	s1.SetLatency(30 * time.Millisecond)
	start := time.Now()
	if _, err := c.Submit(bob, []names.Name{alice}, "slow", "b"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("submit took %v, want >= 30ms of injected latency", elapsed)
	}
	s1.SetLatency(0)
}
