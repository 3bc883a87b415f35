package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Stage identifies one step of the §3.1.2 message-delivery pipeline.
type Stage uint8

// Pipeline stages, in delivery order. Submit, Deposit and Retrieve form the
// mandatory backbone of a trace; Resolve, Relay and Notify appear when the
// delivery actually took those paths (a local deposit never relays, an
// offline recipient is never notified).
const (
	StageSubmit   Stage = iota + 1 // accepted by a mail server / cluster
	StageResolve                   // recipient name resolved to an authority list
	StageRelay                     // forwarded toward the recipient's region/server
	StageDeposit                   // buffered at an authority server
	StageNotify                    // arrival alert sent to an online recipient
	StageRetrieve                  // collected by the recipient's user interface
)

// PipelineStages lists every stage in delivery order — the iteration order
// for reports that walk the per-stage "lat_<stage>" histograms.
var PipelineStages = []Stage{
	StageSubmit, StageResolve, StageRelay, StageDeposit, StageNotify, StageRetrieve,
}

func (s Stage) String() string {
	switch s {
	case StageSubmit:
		return "submit"
	case StageResolve:
		return "resolve"
	case StageRelay:
		return "relay"
	case StageDeposit:
		return "deposit"
	case StageNotify:
		return "notify"
	case StageRetrieve:
		return "retrieve"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// SpanEvent is one stamped step of a message's lifecycle.
type SpanEvent struct {
	Stage Stage  `json:"stage"`
	At    int64  `json:"at"`              // clock units (microticks or ns)
	Where string `json:"where,omitempty"` // server/cluster that stamped it
}

// Trace is the recorded lifecycle of one message, in stamp order.
type Trace struct {
	ID     string      `json:"id"`
	Events []SpanEvent `json:"events"`
}

// StageAt returns the instant of the first event of the given stage.
func (t Trace) StageAt(s Stage) (int64, bool) {
	for _, e := range t.Events {
		if e.Stage == s {
			return e.At, true
		}
	}
	return 0, false
}

// Complete reports whether the trace covers the mandatory backbone of the
// pipeline — submit, deposit and retrieve all present, in causal order.
// Resolve/relay/notify are path-dependent and not required.
func (t Trace) Complete() bool {
	sub, okS := t.StageAt(StageSubmit)
	dep, okD := t.StageAt(StageDeposit)
	ret, okR := t.StageAt(StageRetrieve)
	return okS && okD && okR && sub <= dep && dep <= ret
}

// Key identifies a traced message by value: the node that accepted the
// submission and its per-node sequence number — mail.MessageID's fields,
// restated here because obs imports nothing from the mail packages.
type Key struct {
	Node int64
	Seq  uint64
}

// String renders the key in mail.MessageID's "m<node>-<seq>" text.
func (k Key) String() string { return string(k.AppendTo(make([]byte, 0, 24))) }

// AppendTo appends the key's String() form to buf.
func (k Key) AppendTo(buf []byte) []byte {
	buf = append(buf, 'm')
	buf = strconv.AppendInt(buf, k.Node, 10)
	buf = append(buf, '-')
	return strconv.AppendUint(buf, k.Seq, 10)
}

// ParseKey is the inverse of Key.String. It accepts canonical text only —
// exactly what String prints, so no two strings name one key — and reports
// false for everything else (signs, leading zeros, spaces, overflow).
func ParseKey(id string) (Key, bool) {
	dash := strings.LastIndexByte(id, '-') // the node may carry a '-' of its own
	if dash < 2 || id[0] != 'm' {
		return Key{}, false
	}
	node, errN := strconv.ParseInt(id[1:dash], 10, 64)
	seq, errS := strconv.ParseUint(id[dash+1:], 10, 64)
	k := Key{Node: node, Seq: seq}
	var buf [48]byte
	if errN != nil || errS != nil || string(k.AppendTo(buf[:0])) != id {
		return Key{}, false
	}
	return k, true
}

const (
	// traceShards is the number of independently locked trace tables:
	// stampers of different messages contend only when their keys share one,
	// rare at 64 for the 8–16 server goroutines a cluster runs.
	traceShards = 1 << shardBits
	shardBits   = 6
	// inlineEvents is how many events a record holds before spilling into its
	// overflow slice: one pass through all six pipeline stages fits, so only
	// multi-recipient and retried messages pay for a slice.
	inlineEvents = 6
	// A shard's slabs double from slabMin to slabMax records: a tracer that
	// sees few messages stays small, a busy one pays one allocation per
	// slabMax new traces, and what is allocated ahead of use stays under one
	// slab per shard (1 MB in all).
	slabMin, slabMax = 8, 64
	// ringRecords is how many traces one shard of a bounded tracer keeps
	// (NewRingTracer): 1 024 × 64 shards × (a 248 B record, its ring slot and
	// its index entry) is about 21 MB at most, however long the process runs.
	// The window it gives — the newest 65 536 messages, spread by the shard
	// hash — is far longer than a message's time to retrieval on a server that
	// is keeping up; trace_evictions counts how often it was not.
	ringRecords = 1024
)

// record is one message's trace: a fixed-size slab cell.
type record struct {
	n      int // events in inline
	inline [inlineEvents]SpanEvent
	more   []SpanEvent // events beyond inline, in stamp order
	// The instants a stamp needs, kept so it never walks the events.
	last, submitAt int64 // At of the latest event and of the first submit
	hasSubmit      bool
}

// ringSlot names one live record of a bounded shard and the key it is
// indexed under, which eviction needs to delete that index entry.
type ringSlot struct {
	key Key
	rec *record
}

// traceShard is one table of the trace store. Records live in slabs and
// never move, so the index holds plain pointers.
type traceShard struct {
	mu    sync.Mutex
	index map[Key]*record
	slab  []record // current slab; slab[:len] are in use
	// limit is how many records the shard may hold, 0 for no bound. A bounded
	// shard lists its records in ring in creation order; once it holds limit
	// of them ring[next] is the oldest, and the next new key takes that record
	// over instead of a fresh slab cell.
	limit int
	ring  []ringSlot
	next  int
}

// Tracer stamps message-lifecycle spans. All methods are safe for concurrent
// use and are no-ops on a nil receiver, so call sites need no guards when
// tracing is not wired.
//
// Traces are keyed by Key value and spread over traceShards tables, each with
// its own lock. A stamp on a message already seen writes into that message's
// record and allocates nothing (past inlineEvents, what growing the overflow
// slice costs); a new message takes the next cell of its shard's slab.
//
// NewTracer keeps every trace until Reset: the simulations and the auditors
// read whole traces when a run ends. NewRingTracer, what a long-running
// server builds, keeps the newest ringRecords traces of each shard: past that
// a new message takes over the record of the shard's oldest one, by creation
// order, whose trace is then gone — Trace, Incomplete, Len and IDs report it
// as a message never seen. A stamp that arrives for such a message (a
// retrieval long after the deposit) starts a fresh record like any new key:
// it has no previous event and no submit instant, so it feeds no histogram.
//
// Each stamp also feeds the bound registry (when present): the span from the
// previous stamped event to this one lands in histogram "lat_<stage>", and a
// retrieve stamp additionally records the submit→retrieve span in "lat_e2e".
// That is how per-stage p50/p95/p99 tables and the trace audit come from the
// same instrumentation.
type Tracer struct {
	clock Clock
	reg   *Registry

	// Per-stage span histograms plus lat_e2e, cached after the first lookup:
	// Stamp is on the wire hot path, and a registry lookup (name concat +
	// map access under the registry lock) per stamp showed up in profiles.
	// Lazy (not resolved at construction) so unused stages never register —
	// snapshots must not grow empty histograms. Racing initializations are
	// harmless: Registry.Histogram is idempotent.
	stageHist [StageRetrieve + 1]atomic.Pointer[Histogram]
	e2eHist   atomic.Pointer[Histogram]
	// evictions is the registry's "trace_evictions" counter, made by the first
	// eviction: a tracer that never evicts adds nothing to a snapshot.
	evictions atomic.Pointer[Counter]

	shards [traceShards]traceShard
}

// NewTracer returns a tracer reading instants from clock and feeding span
// histograms into reg (nil reg disables the histograms, not the traces). It
// keeps every trace until Reset.
func NewTracer(clock Clock, reg *Registry) *Tracer {
	return &Tracer{clock: clock, reg: reg}
}

// NewRingTracer is NewTracer with bounded memory: each shard keeps its
// newest ringRecords traces and counts the ones it dropped in reg's
// "trace_evictions".
func NewRingTracer(clock Clock, reg *Registry) *Tracer {
	t := NewTracer(clock, reg)
	for i := range t.shards {
		t.shards[i].limit = ringRecords
	}
	return t
}

// KeepAll lifts the bound of a NewRingTracer from here on — what an auditor
// that reads every trace when its run ends asks for before the first stamp.
// Traces already dropped stay dropped.
func (t *Tracer) KeepAll() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.limit, sh.ring = 0, nil
		sh.mu.Unlock()
	}
}

// shardIndex picks the key's table. Sequence numbers are dense, so the
// multiply spreads neighbours; the node is folded in for multi-node
// deployments.
func shardIndex(k Key) int {
	h := (k.Seq ^ uint64(k.Node)<<32) * 0x9E3779B97F4A7C15
	return int(h >> (64 - shardBits))
}

func (t *Tracer) shard(k Key) *traceShard { return &t.shards[shardIndex(k)] }

// record returns the key's record, creating it when absent, and reports
// whether that took another key's record over; sh.mu is held.
func (sh *traceShard) record(k Key) (r *record, evicted bool) {
	if r := sh.index[k]; r != nil {
		return r, false
	}
	if sh.limit > 0 && len(sh.ring) == sh.limit {
		slot := &sh.ring[sh.next]
		sh.next = (sh.next + 1) % sh.limit
		delete(sh.index, slot.key)
		// Everything but the overflow array goes: a record that kept its
		// last or submitAt would hand the new key a previous event.
		more := slot.rec.more
		clear(more)
		*slot.rec = record{more: more[:0]}
		slot.key = k
		sh.index[k] = slot.rec
		return slot.rec, true
	}
	if sh.index == nil {
		sh.index = make(map[Key]*record)
	}
	if len(sh.slab) == cap(sh.slab) {
		n := min(max(2*cap(sh.slab), slabMin), slabMax)
		if sh.limit > 0 {
			// A bounded shard makes its last slab no larger than the cells it
			// still needs, and its ring grows with the slabs, to the cell: what
			// a full shard holds is then exactly limit of each.
			n = min(n, sh.limit-len(sh.ring))
			sh.ring = append(make([]ringSlot, 0, len(sh.ring)+n), sh.ring...)
		}
		sh.slab = make([]record, 0, n)
	}
	sh.slab = sh.slab[:len(sh.slab)+1]
	r = &sh.slab[len(sh.slab)-1]
	sh.index[k] = r
	if sh.limit > 0 {
		sh.ring = append(sh.ring, ringSlot{key: k, rec: r})
	}
	return r, false
}

// Stamp is StampKey for callers that hold the ID as text — the benchmark's
// tracer replay and tests. It forwards canonical "m<node>-<seq>" text (see
// ParseKey) and drops any other string without recording anything: the
// tracer has no string-keyed store, so such an ID has no trace, and Trace
// and Incomplete report it missing.
func (t *Tracer) Stamp(id string, stage Stage, where string) {
	if k, ok := ParseKey(id); ok {
		t.StampKey(k, stage, where)
	}
}

// StampKey records that the message reached a pipeline stage at the current
// instant. where names the component that stamped (server name, cluster).
func (t *Tracer) StampKey(k Key, stage Stage, where string) {
	if t == nil {
		return
	}
	now := t.clock()
	sh := t.shard(k)
	sh.mu.Lock()
	r, evicted := sh.record(k)
	hasPrev, prev := r.n > 0, r.last
	submitAt, submitOK := r.submitAt, r.hasSubmit && stage == StageRetrieve
	if stage == StageSubmit && !r.hasSubmit {
		r.submitAt, r.hasSubmit = now, true
	}
	r.last = now
	ev := SpanEvent{Stage: stage, At: now, Where: where}
	if r.n < inlineEvents {
		r.inline[r.n] = ev
		r.n++
	} else {
		r.more = append(r.more, ev)
	}
	sh.mu.Unlock()

	if t.reg == nil {
		return
	}
	if evicted {
		c := t.evictions.Load()
		if c == nil {
			c = t.reg.Counter("trace_evictions")
			t.evictions.Store(c)
		}
		c.Inc()
	}
	if hasPrev {
		if int(stage) < len(t.stageHist) {
			h := t.stageHist[stage].Load()
			if h == nil {
				h = t.reg.Histogram("lat_"+stage.String(), nil)
				t.stageHist[stage].Store(h)
			}
			h.Observe(float64(now - prev))
		} else { // unknown stage value: fall back to a registry lookup
			t.reg.Histogram("lat_"+stage.String(), nil).Observe(float64(now - prev))
		}
	}
	if submitOK {
		h := t.e2eHist.Load()
		if h == nil {
			h = t.reg.Histogram("lat_e2e", nil)
			t.e2eHist.Store(h)
		}
		h.Observe(float64(now - submitAt))
	}
}

// Events appends the message's recorded lifecycle events to dst (nil for a
// copy of the caller's own); false when k has no trace.
func (t *Tracer) Events(k Key, dst []SpanEvent) ([]SpanEvent, bool) {
	if t == nil {
		return nil, false
	}
	sh := t.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.index[k]
	if r == nil {
		return nil, false
	}
	return append(append(dst, r.inline[:r.n]...), r.more...), true
}

// Incomplete returns the keys whose traces are missing or fail
// Trace.Complete, in the order given — the audit primitive the chaos soak
// builds on: every committed message must show a complete submit→retrieve
// span chain, even across crash/recover windows. One buffer holds each trace
// in turn, and nothing is formatted.
func (t *Tracer) Incomplete(keys []Key) []Key {
	var out []Key
	var buf []SpanEvent
	for _, k := range keys {
		events, ok := t.Events(k, buf[:0])
		if ok {
			buf = events
		}
		if !ok || !(Trace{Events: events}).Complete() {
			out = append(out, k)
		}
	}
	return out
}

// Reset drops every recorded trace.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.index, sh.slab, sh.ring, sh.next = nil, nil, nil, 0
		sh.mu.Unlock()
	}
}
