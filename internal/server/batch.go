package server

import (
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/sim"
)

// Relay batching: with Config.BatchSize > 1, outgoing transfers are not sent
// one envelope each. enqueue stages them per destination server, and a batch
// flushes as a single TransferBatch when it reaches BatchSize items (size
// watermark) or when FlushInterval elapses since its first item (time
// watermark), whichever comes first.
//
// The reliability ledger does not change: every staged item remains a
// pendingTransfer in s.pending until the batch's TransferBatchAck settles
// it. Failure handling degrades to the proven single-transfer protocol —
// a batch that times out, or individual items a receiver reports failed,
// are re-dispatched one by one through dispatch(), whose per-item retry
// timer and candidate failover then take over ("retry splitting").
//
// Counters: transfers_out stays per message copy in both modes, so delivery
// accounting is mode-independent; relay_envelopes counts physical envelopes
// carrying transfers (one per single Transfer, one per TransferBatch) and is
// the metric the batch-size sweeps report.

// stagedBatch is a per-destination batch being filled. Recycled like
// inflightBatch below: reached only through s.staged, by destination, and
// released (flush timer cancelled, toks emptied, array kept) by the flush or
// the crash that ends it.
type stagedBatch struct {
	flush  sim.Event // FlushInterval watermark
	s      *Server
	target graph.NodeID
	toks   []uint64
}

// Run is the time watermark: ship whatever has been staged.
func (b *stagedBatch) Run() { b.s.flushStaged(b.target) }

// inflightBatch is a flushed batch awaiting its TransferBatchAck. Records are
// recycled as pendingTransfer records are, and on the same terms: one is only
// reached through s.inflight, by batch token, and releaseBatch cancels the
// retry timer before the record goes on s.freeInflight — with toks emptied
// and its capacity kept for the next flush.
type inflightBatch struct {
	retry sim.Event // retry-timeout: on expiry the batch splits
	s     *Server
	tok   uint64
	toks  []uint64
}

// Run is the retry timeout: no batch ack arrived.
func (fb *inflightBatch) Run() { fb.s.splitBatch(fb.tok) }

// releaseStaged takes a staged batch out of the table and recycles its record.
func (s *Server) releaseStaged(b *stagedBatch) {
	s.net.Scheduler().Cancel(&b.flush)
	if s.staged[b.target] == b {
		delete(s.staged, b.target)
	}
	*b = stagedBatch{toks: b.toks[:0]}
	s.freeStaged = append(s.freeStaged, b)
}

// releaseBatch takes a batch off the in-flight ledger and recycles its record.
func (s *Server) releaseBatch(fb *inflightBatch) {
	s.net.Scheduler().Cancel(&fb.retry)
	delete(s.inflight, fb.tok)
	*fb = inflightBatch{toks: fb.toks[:0]}
	s.freeInflight = append(s.freeInflight, fb)
}

// stage adds a pending transfer to the batch of its picked destination,
// flushing on the size watermark. Staging counts as the transfer's first
// attempt, exactly like an immediate dispatch would.
func (s *Server) stage(tok uint64) {
	p, ok := s.pending[tok]
	if !ok || !s.Up() {
		return
	}
	target := s.pickCandidate(p)
	p.attempt++
	if p.attempt > 1 {
		s.stats.Inc("retries")
	}
	s.addToBatch(tok, target)
}

// addToBatch appends a pending transfer to its destination's staged batch,
// creating the batch (and arming its flush timer) on first use.
func (s *Server) addToBatch(tok uint64, target graph.NodeID) {
	b := s.staged[target]
	if b == nil {
		b = take(&s.freeStaged)
		b.s, b.target = s, target
		s.staged[target] = b
		sched := s.net.Scheduler()
		sched.Schedule(&b.flush, sched.Now()+s.flushEvery, b)
	}
	b.toks = append(b.toks, tok)
	if len(b.toks) >= s.batchSize {
		s.flushStaged(target)
	}
}

// firstActive returns the first up candidate in list order — the §3.1.2c
// deposit target as of right now — or fallback when none look up.
func (s *Server) firstActive(p *pendingTransfer, fallback graph.NodeID) graph.NodeID {
	for _, cand := range p.candidates {
		if s.net.IsUp(cand) {
			return cand
		}
	}
	return fallback
}

// flushStaged ships the destination's staged batch as one TransferBatch
// envelope and arms the batch-level retry timer.
func (s *Server) flushStaged(target graph.NodeID) {
	b, ok := s.staged[target]
	if !ok {
		return
	}
	delete(s.staged, target) // a transfer staged for target from here on starts a new batch
	defer s.releaseStaged(b)
	if !s.Up() {
		return // crash raced the flush; items stay pending for recovery
	}
	// The envelope's items and the ledger's tokens are built in a recycled box
	// and a recycled record, both arriving empty with their arrays kept.
	box, fb := s.batches.Get(), take(&s.freeInflight)
	for _, tok := range b.toks {
		p, still := s.pending[tok]
		if !still {
			continue
		}
		// Re-validate the destination at send time: the pick was made when
		// the item was staged, and availability may have changed while it
		// waited. Shipping a deposit to a secondary after the primary
		// recovered would place mail where the recipient's §3.1.2c GetMail
		// walk has no reason to look — a silent loss. A single transfer
		// cannot hit this (it picks and sends in the same instant), so the
		// batch path must close the window itself: redirect the item into
		// its fresh target's batch instead.
		if fresh := s.firstActive(p, target); fresh != target {
			s.stats.Inc("batch_redirects")
			s.addToBatch(tok, fresh)
			continue
		}
		box.V.Items = append(box.V.Items, p.transfer())
		fb.toks = append(fb.toks, tok)
	}
	n := int64(len(fb.toks))
	if n == 0 {
		s.releaseBatch(fb) // the unsent, still empty box is left to the collector
		return
	}
	s.nextBatch++
	fb.s, fb.tok = s, s.nextBatch
	box.V.Origin, box.V.Token = s.id, fb.tok
	s.stats.Inc("relay_envelopes")
	s.stats.Add("transfers_out", n)
	s.stats.Add("batched_transfers", n)
	s.inflight[fb.tok] = fb
	_ = s.net.Send(s.id, target, box)
	sched := s.net.Scheduler()
	sched.Schedule(&fb.retry, sched.Now()+s.ackTimeout(target), fb)
}

// splitBatch handles a batch whose ack never arrived: dissolve it and hand
// every still-pending item to the single-transfer retry machinery.
func (s *Server) splitBatch(btok uint64) {
	fb, ok := s.inflight[btok]
	if !ok || !s.Up() {
		return
	}
	s.stats.Inc("batch_splits")
	for _, tok := range fb.toks {
		if _, still := s.pending[tok]; still {
			s.dispatch(tok)
		}
	}
	s.releaseBatch(fb)
}

// handleTransferBatch processes a received batch item by item — handleItem,
// as for a single Transfer — and acks the batch as a unit, reporting the
// indices it could not process so the origin can retry exactly those
// individually.
func (s *Server) handleTransferBatch(tb TransferBatch) {
	var failed []int
	for i, tr := range tb.Items {
		if !s.handleItem(tr) {
			failed = append(failed, i)
		}
	}
	_ = s.net.Send(s.id, tb.Origin, s.batchAcks.Box(TransferBatchAck{Token: tb.Token, Failed: failed}))
}

// handleBatchAck settles a batch: acked items leave the pending ledger,
// failed items are re-dispatched individually.
func (s *Server) handleBatchAck(ack TransferBatchAck) {
	fb, ok := s.inflight[ack.Token]
	if !ok {
		return
	}
	failedSet := make(map[int]bool, len(ack.Failed))
	for _, i := range ack.Failed {
		failedSet[i] = true
	}
	for i, tok := range fb.toks {
		if failedSet[i] {
			if _, still := s.pending[tok]; still {
				s.dispatch(tok)
			}
			continue
		}
		if p, still := s.pending[tok]; still {
			s.settle(p)
		}
	}
	s.releaseBatch(fb)
}
