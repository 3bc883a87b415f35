package server

import (
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

func batched(size int, flush sim.Time) func(*Config) {
	return func(c *Config) {
		c.BatchSize = size
		c.FlushInterval = flush
	}
}

// TestBatchCoalescesOnSizeWatermark: four transfers to the same destination
// staged before the flush interval must ship as ONE TransferBatch envelope.
func TestBatchCoalescesOnSizeWatermark(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(4, 100*sim.Unit))
	for i := 0; i < 4; i++ {
		if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.Run()
	st := w.servers[s1].Stats()
	if got := st.Get("relay_envelopes"); got != 1 {
		t.Errorf("relay_envelopes = %d, want 1 (coalesced batch)", got)
	}
	if got := st.Get("transfers_out"); got != 4 {
		t.Errorf("transfers_out = %d, want 4 (per-message accounting)", got)
	}
	if got := w.servers[s3].MailboxLen(bob); got != 4 {
		t.Errorf("bob has %d messages, want 4", got)
	}
	if got := w.servers[s1].PendingTransfers(); got != 0 {
		t.Errorf("pending = %d after batch ack, want 0", got)
	}
}

// TestBatchFlushesOnInterval: a batch that never reaches the size watermark
// flushes when FlushInterval elapses — mail must not wait forever.
func TestBatchFlushesOnInterval(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(16, 2*sim.Unit))
	for i := 0; i < 2; i++ {
		if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.Run()
	st := w.servers[s1].Stats()
	if got := st.Get("relay_envelopes"); got != 1 {
		t.Errorf("relay_envelopes = %d, want 1", got)
	}
	if got := w.servers[s3].MailboxLen(bob); got != 2 {
		t.Errorf("bob has %d messages, want 2", got)
	}
}

// TestBatchTimeoutSplits: a batch shipped at a crashed destination times out
// and splits — its items fall back to individual dispatch with per-item
// retries, and delivery completes exactly once after recovery.
func TestBatchTimeoutSplits(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(2, 2*sim.Unit))
	w.net.Crash(s3)
	for i := 0; i < 2; i++ {
		if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the batch flush, time out, and split while the destination is down.
	w.sched.RunFor(20 * sim.Unit)
	st := w.servers[s1].Stats()
	if got := st.Get("batch_splits"); got != 1 {
		t.Errorf("batch_splits = %d, want 1", got)
	}
	if got := w.servers[s1].PendingTransfers(); got != 2 {
		t.Errorf("pending = %d while destination down, want 2", got)
	}
	w.net.Recover(s3)
	w.sched.RunFor(40 * sim.Unit)
	if got := w.servers[s3].MailboxLen(bob); got != 2 {
		t.Errorf("bob has %d messages after recovery, want 2", got)
	}
	if got := w.servers[s1].PendingTransfers(); got != 0 {
		t.Errorf("pending = %d after recovery, want 0", got)
	}
	if got := w.servers[s3].Stats().Get("duplicate_deposits"); got != 0 {
		t.Errorf("duplicate_deposits = %d, want 0", got)
	}
}

// TestBatchOriginCrashRecovers: transfers staged but not yet flushed when
// the origin crashes survive in the pending ledger and are re-dispatched
// individually on recovery.
func TestBatchOriginCrashRecovers(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(8, 100*sim.Unit))
	for i := 0; i < 2; i++ {
		if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing flushed yet: both staged.
	if got := w.servers[s1].Stats().Get("relay_envelopes"); got != 0 {
		t.Fatalf("relay_envelopes = %d before flush, want 0", got)
	}
	w.net.Crash(s1)
	w.net.Recover(s1)
	w.sched.Run()
	if got := w.servers[s3].MailboxLen(bob); got != 2 {
		t.Errorf("bob has %d messages, want 2", got)
	}
	if got := w.servers[s1].PendingTransfers(); got != 0 {
		t.Errorf("pending = %d, want 0", got)
	}
	// Recovery dispatches individually: two single-transfer envelopes.
	if got := w.servers[s1].Stats().Get("relay_envelopes"); got != 2 {
		t.Errorf("relay_envelopes = %d after recovery, want 2", got)
	}
}

// TestBatchAckRetrySplitting: a TransferBatchAck with Failed indices settles
// the acked items and re-dispatches exactly the failed ones.
func TestBatchAckRetrySplitting(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(2, 100*sim.Unit))
	w.net.Crash(s3) // the real destination never acks; we forge the ack
	for i := 0; i < 2; i++ {
		if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.servers[s1].PendingTransfers(); got != 2 {
		t.Fatalf("pending = %d after flush, want 2", got)
	}
	// Let the batch envelope reach (and be dropped by) the crashed
	// destination, but stop before the batch retry timeout fires.
	w.sched.RunFor(5 * sim.Unit)
	// Partial failure: item 0 processed, item 1 failed. The first flushed
	// batch has token 1.
	w.servers[s1].handleBatchAck(TransferBatchAck{Token: 1, Failed: []int{1}})
	if got := w.servers[s1].PendingTransfers(); got != 1 {
		t.Fatalf("pending = %d after partial ack, want 1 (failed item only)", got)
	}
	w.net.Recover(s3)
	w.sched.RunFor(40 * sim.Unit)
	if got := w.servers[s3].MailboxLen(bob); got != 1 {
		t.Errorf("bob has %d messages, want 1 (the re-dispatched failed item)", got)
	}
	if got := w.servers[s1].PendingTransfers(); got != 0 {
		t.Errorf("pending = %d, want 0", got)
	}
}

// TestBatchReceiverReportsUnprocessable: a receiver that cannot process an
// item reports its index in the ack instead of silently dropping the whole
// batch.
func TestBatchReceiverReportsUnprocessable(t *testing.T) {
	w := newWorld(t, mail.Retention{})
	good := mail.Message{ID: mail.MessageID{Node: 99, Seq: 1}, To: []names.Name{bob}, Body: "x"}
	bad := mail.Message{ID: mail.MessageID{Node: 99, Seq: 2}, To: []names.Name{bob}, Body: "y"}
	if err := w.net.Send(h2, s3, new(netsim.FreeList[TransferBatch]).Box(TransferBatch{
		Origin: h2,
		Token:  7,
		Items: []Transfer{
			{Kind: TransferDeposit, Msg: good, Recipient: bob, Token: 1},
			{Kind: TransferKind(0), Msg: bad, Recipient: bob, Token: 2}, // unknown kind
		},
	})); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if got := w.servers[s3].MailboxLen(bob); got != 1 {
		t.Errorf("bob has %d messages, want 1 (good item deposited)", got)
	}
	acks := w.hosts[h2].batchAcks
	if len(acks) != 1 {
		t.Fatalf("origin got %d batch acks, want 1", len(acks))
	}
	if acks[0].Token != 7 || len(acks[0].Failed) != 1 || acks[0].Failed[0] != 1 {
		t.Errorf("ack = %+v, want Token 7, Failed [1]", acks[0])
	}
}

// TestBatchSizeOneMatchesDefault: BatchSize=1 takes the exact classic path —
// identical counters and identical mailbox outcomes to an unconfigured
// server, which is what makes the pre-PR equivalence trivially hold.
func TestBatchSizeOneMatchesDefault(t *testing.T) {
	run := func(mutate ...func(*Config)) (map[string]int64, int) {
		w := newWorld(t, mail.Retention{}, mutate...)
		for i := 0; i < 3; i++ {
			if _, err := w.servers[s1].Submit(SubmitRequest{From: alice, To: []names.Name{bob, alice}}); err != nil {
				t.Fatal(err)
			}
		}
		w.sched.Run()
		return w.servers[s1].Stats().Counters(), w.servers[s3].MailboxLen(bob)
	}
	defStats, defBob := run()
	oneStats, oneBob := run(batched(1, 5*sim.Unit))
	if defBob != oneBob {
		t.Errorf("bob delivery differs: default %d vs batch-1 %d", defBob, oneBob)
	}
	for k, v := range defStats {
		if oneStats[k] != v {
			t.Errorf("counter %s differs: default %d vs batch-1 %d", k, v, oneStats[k])
		}
	}
	for k, v := range oneStats {
		if defStats[k] != v {
			t.Errorf("counter %s only in batch-1 run: %d", k, v)
		}
	}
}

// TestFlushRedirectsStaleDestination: an item staged while its primary
// authority server was down must not ship to the secondary once the primary
// has recovered — at flush time the destination is re-validated and the item
// redirected, or the deposit would sit where the recipient's §3.1.2c walk
// never looks behind a healthy primary.
func TestFlushRedirectsStaleDestination(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(8, 50*sim.Unit))
	w.net.Crash(s1)
	srv := w.servers[s2]
	msg := mail.Message{ID: mail.MessageID{Node: s2, Seq: 1}, From: carol,
		To: []names.Name{alice}, Subject: "s", Body: "b"}
	// Primary s1 is down, so staging picks the secondary (s2 itself).
	srv.enqueue(TransferDeposit, msg, alice, []graph.NodeID{s1, s2})
	w.sched.RunFor(10 * sim.Unit)
	w.net.Recover(s1)
	w.sched.Run()
	if got := srv.Stats().Get("batch_redirects"); got != 1 {
		t.Errorf("batch_redirects = %d, want 1", got)
	}
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Errorf("alice at recovered primary s1 has %d messages, want 1", got)
	}
	if got := w.servers[s2].MailboxLen(alice); got != 0 {
		t.Errorf("alice at secondary s2 has %d messages, want 0", got)
	}
	if got := srv.PendingTransfers(); got != 0 {
		t.Errorf("pending = %d after redirect settles, want 0", got)
	}
}

// TestRecoveredRestartsCandidateWalk: the Recovered hook also fires on
// reconnection (link restore) while the server is up and re-drives every
// pending transfer. The re-drive must restart each transfer's candidate walk
// at the head of its list — resuming mid-rotation would send the deposit to
// a secondary while the primary is healthy, stranding it for retrieval.
func TestRecoveredRestartsCandidateWalk(t *testing.T) {
	w := newWorld(t, mail.Retention{}, batched(8, 50*sim.Unit))
	srv := w.servers[s2]
	msg := mail.Message{ID: mail.MessageID{Node: s2, Seq: 1}, From: carol,
		To: []names.Name{alice}, Subject: "s", Body: "b"}
	// Staged toward the primary s1; the pick advanced the rotation past it.
	srv.enqueue(TransferDeposit, msg, alice, []graph.NodeID{s1, s2})
	// A link restore fires Recovered on its up endpoints (see
	// netsim.RestoreLink); simulate the hook directly.
	srv.Recovered(w.sched.Now())
	w.sched.Run()
	if got := w.servers[s1].MailboxLen(alice); got != 1 {
		t.Errorf("alice at primary s1 has %d messages, want 1", got)
	}
	if got := w.servers[s2].MailboxLen(alice); got != 0 {
		t.Errorf("alice at secondary s2 has %d messages, want 0 (walk must restart at head)", got)
	}
	if got := srv.PendingTransfers(); got != 0 {
		t.Errorf("pending = %d after recovery re-drive, want 0", got)
	}
}
