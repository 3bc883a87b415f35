package livenet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// SpoolConfig tunes the cluster's redelivery spool. Zero fields take the
// defaults noted on each field.
type SpoolConfig struct {
	// BaseDelay is the wait before the first redelivery attempt of an entry
	// (default 5ms). Subsequent attempts double it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 250ms). Keeping retry
	// pressure off struggling servers is the pull-based load-distribution
	// lesson (Stolyar 2018): a recovering server must not be stampeded.
	MaxDelay time.Duration
	// Seed drives the backoff jitter (default 1). Jitter decorrelates
	// retries of entries spooled in the same outage.
	Seed int64
}

func (cfg SpoolConfig) withDefaults() SpoolConfig {
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 5 * time.Millisecond
	}
	if cfg.MaxDelay < cfg.BaseDelay {
		cfg.MaxDelay = 250 * time.Millisecond
		if cfg.MaxDelay < cfg.BaseDelay {
			cfg.MaxDelay = cfg.BaseDelay
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// spoolEntry is one recipient copy awaiting redelivery.
type spoolEntry struct {
	msg      mail.Message
	rcpt     names.Name
	attempts int
	due      time.Time
}

// spool buffers recipient copies that could not be deposited at any
// authority server and redelivers them from a background worker with capped
// exponential backoff plus jitter — the §3.1.2b "mail servers buffer
// messages" obligation extended to the window where every authority server
// of a recipient is down or unreachable at once.
type spool struct {
	c   *Cluster
	cfg SpoolConfig
	rng *rand.Rand // worker-goroutine only

	mu      sync.Mutex
	entries []*spoolEntry

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// EnableSpool starts the cluster's redelivery spool. It must be called
// before the cluster is closed and at most once; with the spool running,
// Submit buffers undeliverable recipient copies instead of failing them.
func (c *Cluster) EnableSpool(cfg SpoolConfig) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.spoolMu.Lock()
	defer c.spoolMu.Unlock()
	if c.spool != nil {
		return errors.New("livenet: spool already enabled")
	}
	cfg = cfg.withDefaults()
	sp := &spool{
		c:    c,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.spool = sp
	go sp.run()
	return nil
}

// SpoolDepth reports how many recipient copies are queued for redelivery.
func (c *Cluster) SpoolDepth() int {
	sp := c.spoolOf()
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.entries)
}

// add queues one recipient copy for redelivery and nudges the worker.
func (sp *spool) add(msg mail.Message, rcpt names.Name) {
	e := &spoolEntry{msg: msg, rcpt: rcpt, due: time.Now().Add(sp.cfg.BaseDelay)}
	sp.mu.Lock()
	sp.entries = append(sp.entries, e)
	sp.mu.Unlock()
	select {
	case sp.wake <- struct{}{}:
	default:
	}
}

func (sp *spool) stop() {
	close(sp.quit)
	<-sp.done
}

// run is the redelivery worker: sleep until the earliest entry is due (or a
// new entry arrives), then retry every due entry through the normal
// deposit-with-failover path.
func (sp *spool) run() {
	defer close(sp.done)
	timer := time.NewTimer(sp.cfg.MaxDelay)
	defer timer.Stop()
	for {
		d := sp.nextDue()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-sp.quit:
			return
		case <-sp.wake:
		case <-timer.C:
		}
		sp.deliverDue()
	}
}

// nextDue reports how long to sleep before the earliest entry is due. With
// an empty spool it returns an idle period bounded by MaxDelay.
func (sp *spool) nextDue() time.Duration {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.entries) == 0 {
		return sp.cfg.MaxDelay
	}
	earliest := sp.entries[0].due
	for _, e := range sp.entries[1:] {
		if e.due.Before(earliest) {
			earliest = e.due
		}
	}
	d := time.Until(earliest)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// deliverDue retries every due entry once, all as one grouped deposit (what
// SubmitBatch runs). Entries that still fail get a backed-off new due time;
// delivered entries leave the spool. spool_batch_drains counts the passes
// that redelivered two or more entries, spool_batch_msgs those entries.
func (sp *spool) deliverDue() {
	now := time.Now()
	b := batchPool.Get().(*batch)
	defer b.release()
	var due []*spoolEntry
	sp.mu.Lock()
	for _, e := range sp.entries {
		if !e.due.After(now) {
			due = append(due, e)
			b.copies = append(b.copies, delivery{msg: e.msg, rcpt: e.rcpt})
		}
	}
	sp.mu.Unlock()
	sp.c.deliver(context.Background(), b, false)

	delivered := 0
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for k, e := range due {
		if b.copies[k].err == nil {
			delivered++
			sp.c.stats.Inc("spool_redelivered")
			sp.removeLocked(e)
		} else {
			e.attempts++
			sp.c.stats.Inc("spool_retries")
			e.due = time.Now().Add(sp.backoff(e.attempts))
		}
	}
	if delivered >= 2 {
		sp.c.stats.Inc("spool_batch_drains")
		sp.c.stats.Add("spool_batch_msgs", int64(delivered))
	}
}

// removeLocked deletes an entry; sp.mu must be held.
func (sp *spool) removeLocked(e *spoolEntry) {
	for i, cur := range sp.entries {
		if cur == e {
			sp.entries = append(sp.entries[:i], sp.entries[i+1:]...)
			return
		}
	}
}

// backoff is capped exponential backoff with equal jitter: the delay for
// attempt n is uniform in [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹], capped at MaxDelay.
func (sp *spool) backoff(attempt int) time.Duration {
	d := sp.cfg.BaseDelay
	for i := 1; i < attempt && d < sp.cfg.MaxDelay; i++ {
		d *= 2
	}
	if d > sp.cfg.MaxDelay {
		d = sp.cfg.MaxDelay
	}
	half := d / 2
	return half + time.Duration(sp.rng.Int63n(int64(half)+1))
}
