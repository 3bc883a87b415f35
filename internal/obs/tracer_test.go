package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// fakeClock is a manually advanced Clock for deterministic tracer tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64 { return c.now }

func TestTracerCompleteChain(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry()
	tr := NewTracer(clk.Now, reg)

	clk.now = 10
	tr.Stamp("m1-1", StageSubmit, "s1")
	clk.now = 15
	tr.Stamp("m1-1", StageResolve, "s1")
	clk.now = 25
	tr.Stamp("m1-1", StageDeposit, "s2")
	clk.now = 30
	tr.Stamp("m1-1", StageNotify, "s2")
	clk.now = 60
	tr.Stamp("m1-1", StageRetrieve, "s2")

	trace, ok := tr.Trace("m1-1", nil)
	if !ok || len(trace.Events) != 5 {
		t.Fatalf("trace = %+v ok=%v", trace, ok)
	}
	if !trace.Complete() {
		t.Error("full chain should be complete")
	}
	if at, ok := trace.StageAt(StageDeposit); !ok || at != 25 {
		t.Errorf("deposit at %d ok=%v, want 25", at, ok)
	}

	// Per-stage histograms hold the deltas from the previous event.
	if hs := reg.Histogram("lat_deposit", nil).Snapshot(); hs.Count != 1 || hs.Sum != 10 {
		t.Errorf("lat_deposit = %+v, want one sample of 10", hs)
	}
	if hs := reg.Histogram("lat_retrieve", nil).Snapshot(); hs.Count != 1 || hs.Sum != 30 {
		t.Errorf("lat_retrieve = %+v, want one sample of 30", hs)
	}
	// End-to-end = retrieve − submit.
	if hs := reg.Histogram("lat_e2e", nil).Snapshot(); hs.Count != 1 || hs.Sum != 50 {
		t.Errorf("lat_e2e = %+v, want one sample of 50", hs)
	}
	// Submit has no predecessor: no lat_submit histogram was created.
	if _, ok := reg.Snapshot().Histograms["lat_submit"]; ok {
		t.Error("lat_submit should not exist for the first event")
	}
}

func TestTraceIncomplete(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	const full, partial, neverSeen = "m1-1", "m1-2", "m1-3"

	clk.now = 1
	tr.Stamp(full, StageSubmit, "s1")
	tr.Stamp(partial, StageSubmit, "s1")
	clk.now = 2
	tr.Stamp(full, StageDeposit, "s1")
	clk.now = 3
	tr.Stamp(full, StageRetrieve, "s1")

	key := func(id string) Key { k, _ := ParseKey(id); return k }
	gaps := tr.Incomplete([]Key{key(full), key(neverSeen), key(partial)})
	if len(gaps) != 2 || gaps[0] != key(neverSeen) || gaps[1] != key(partial) {
		t.Errorf("Incomplete = %v, want [%s %s], in the order given", gaps, neverSeen, partial)
	}
	if got := tr.Incomplete([]Key{key(full)}); len(got) != 0 {
		t.Errorf("Incomplete([full]) = %v, want empty", got)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Error("Reset did not clear traces")
	}
}

// TestIncompleteSharesOneBuffer: Trace appends a trace's events to the buffer
// it is given, and Incomplete passes one buffer from trace to trace, so
// auditing complete traces costs no copy of each one's events.
func TestIncompleteSharesOneBuffer(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now, nil)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Node: 1, Seq: uint64(i + 1)}
		for _, st := range []Stage{StageSubmit, StageDeposit, StageRetrieve} {
			clk.now++
			tr.StampKey(keys[i], st, Intern("s1"))
		}
	}
	buf := append(make([]SpanEvent, 0, 8), SpanEvent{Stage: StageNotify})
	got, ok := tr.Trace(keys[0].String(), buf)
	if !ok || len(got.Events) != 4 || &got.Events[0] != &buf[0] || got.Events[0].Stage != StageNotify || got.Events[1].Stage != StageSubmit {
		t.Fatalf("Trace(%s, one event) = %+v, %v; want the three stamps appended in place", keys[0], got.Events, ok)
	}
	if n := testing.AllocsPerRun(10, func() { tr.Incomplete(keys) }); n > 1 {
		t.Errorf("Incomplete over %d complete traces: %v allocs, want ≤ 1", len(keys), n)
	}
}

// TestParseKey pins the text form: ParseKey inverts Key.String and refuses
// every spelling String would not print, so no two strings name one trace.
func TestParseKey(t *testing.T) {
	for _, k := range []Key{
		{1, 1}, {0, 0}, {64, 18446744073709551615}, {-1, 5},
		{9223372036854775807, 7}, {-9223372036854775808, 7},
	} {
		if got, ok := ParseKey(k.String()); !ok || got != k {
			t.Errorf("ParseKey(%q) = %v, %v; want %v", k.String(), got, ok, k)
		}
	}
	for _, bad := range []string{
		"", "m", "m1", "m-1", "m1-", "1-1", "x1-1", "m1_1", "m01-1", "m1-01", "m+1-1",
		"m1-+1", "m-0-1", "m1-1 ", " m1-1", "m1--1", "m1-1-", "full",
		"m9223372036854775808-1", "m-9223372036854775809-1", "m1-18446744073709551616",
	} {
		if k, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) = %v, want refusal", bad, k)
		}
	}
}

// TestStampNonCanonicalID pins what the string shim does with text that is
// not a message ID: nothing is recorded, and Trace finds nothing under it.
func TestStampNonCanonicalID(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(WallClock, reg)
	for _, st := range PipelineStages {
		tr.Stamp("not-an-id", st, "s1")
		tr.Stamp("m01-1", st, "s1")
	}
	if tr.Len() != 0 || len(tr.IDs()) != 0 {
		t.Errorf("non-canonical ids left %d traces (%v)", tr.Len(), tr.IDs())
	}
	if _, ok := tr.Trace("not-an-id", nil); ok {
		t.Error("Trace of a non-canonical id reported a trace")
	}
	if _, ok := tr.Trace("m1-1", nil); ok {
		t.Error(`"m01-1" aliased to m1-1`)
	}
	if n := len(reg.Snapshot().Histograms); n != 0 {
		t.Errorf("dropped stamps fed %d histograms", n)
	}
}

func TestTraceCausalOrderRequired(t *testing.T) {
	tr := Trace{ID: "x", Events: []SpanEvent{
		{Stage: StageSubmit, At: 100},
		{Stage: StageDeposit, At: 50}, // deposit before submit: broken
		{Stage: StageRetrieve, At: 200},
	}}
	if tr.Complete() {
		t.Error("out-of-order trace must not be complete")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Stamp("id", StageSubmit, "s1") // must not panic
	if _, ok := tr.Trace("id", nil); ok {
		t.Error("nil tracer returned a trace")
	}
	if tr.Len() != 0 {
		t.Error("nil tracer Len != 0")
	}
	if _, ok := tr.Trace("a", nil); ok {
		t.Error("nil tracer returned a trace for text that is no ID")
	}
	if k := (Key{Node: 1, Seq: 1}); !reflect.DeepEqual(tr.Incomplete([]Key{k}), []Key{k}) {
		t.Errorf("nil tracer Incomplete = %v, want [%v]", tr.Incomplete([]Key{k}), k)
	}
	tr.Reset() // must not panic
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageSubmit: "submit", StageResolve: "resolve", StageRelay: "relay",
		StageDeposit: "deposit", StageNotify: "notify", StageRetrieve: "retrieve",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

// TestTracerConcurrent has 8 goroutines stamp at once: each runs its own
// messages through the pipeline (disjoint keys) and all of them stamp one
// shared set (the same records, from every goroutine); meaningful under
// -race.
func TestTracerConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(WallClock, reg)
	const workers = 8
	const msgs = 200
	const shared = 8 // divides msgs, so every shared trace gets the same count
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				own := Key{Node: int64(w + 1), Seq: uint64(i)}
				tr.StampKey(own, StageSubmit, Intern("s1"))
				tr.StampKey(Key{Node: 100, Seq: uint64(i % shared)}, StageResolve, Intern("s1"))
				tr.StampKey(own, StageDeposit, Intern("s1"))
				tr.StampKey(own, StageRetrieve, Intern("s1"))
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*msgs+shared {
		t.Errorf("Len = %d, want %d", tr.Len(), workers*msgs+shared)
	}
	var keys []Key
	for w := 0; w < workers; w++ {
		for i := 0; i < msgs; i++ {
			keys = append(keys, Key{Node: int64(w + 1), Seq: uint64(i)})
		}
	}
	if gaps := tr.Incomplete(keys); len(gaps) != 0 {
		t.Errorf("%d incomplete traces after concurrent stamping", len(gaps))
	}
	for i := 0; i < shared; i++ { // far past the inline capacity, none lost
		got, _ := tr.Trace(fmt.Sprintf("m100-%d", i), nil)
		if want := workers * msgs / shared; len(got.Events) != want {
			t.Errorf("shared trace %d has %d events, want %d", i, len(got.Events), want)
		}
	}
	if hs := reg.Histogram("lat_e2e", nil).Snapshot(); hs.Count != workers*msgs {
		t.Errorf("lat_e2e count = %d, want %d", hs.Count, workers*msgs)
	}
}

// TestInternConcurrent has 8 goroutines intern names while they stamp and read
// traces — each its own names, and all of them one shared set, new to the
// process on every run; meaningful under -race. A name gets one site
// whichever goroutine interns it first, and every event reads back the name
// its site was interned from.
func TestInternConcurrent(t *testing.T) {
	tr := NewTracer(WallClock, nil)
	const workers, names = 8, 64
	run := rand.Int63()
	var got [workers][names]Site
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range names {
				shared, own := fmt.Sprintf("%d-%d", run, i), fmt.Sprintf("%d-w%d-%d", run, w, i)
				got[w][i] = Intern(shared)
				k := Key{Node: int64(w), Seq: uint64(i)}
				tr.StampKey(k, StageSubmit, Intern(own))
				tr.StampKey(k, StageDeposit, got[w][i])
				if ev, _ := tr.Events(k, nil); len(ev) != 2 || ev[0].Where != own || ev[1].Where != shared {
					t.Errorf("%v reads %+v, want %s then %s", k, ev, own, shared)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d interned the shared names as other sites", w)
		}
	}
}

// refTracer is the tracer this package had before traces were keyed by
// value: one map from ID text to a growing event slice. It stays here as
// the reference the sharded store must agree with.
type refTracer struct {
	clock  Clock
	reg    *Registry
	traces map[string]*Trace
}

func (t *refTracer) Stamp(id string, stage Stage, where string) {
	now := t.clock()
	tr := t.traces[id]
	if tr == nil {
		tr = &Trace{ID: id}
		t.traces[id] = tr
	}
	if n := len(tr.Events); n > 0 {
		t.reg.Histogram("lat_"+stage.String(), nil).Observe(float64(now - tr.Events[n-1].At))
	}
	if submitAt, ok := tr.StageAt(StageSubmit); ok && stage == StageRetrieve {
		t.reg.Histogram("lat_e2e", nil).Observe(float64(now - submitAt))
	}
	tr.Events = append(tr.Events, SpanEvent{Stage: stage, At: now, Where: where})
}

func (t *refTracer) IDs() []string {
	out := make([]string, 0, len(t.traces))
	for id := range t.traces {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (t *refTracer) Incomplete(ids []string) []string {
	var out []string
	for _, id := range ids {
		if tr := t.traces[id]; tr == nil || !tr.Complete() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TestTracerMatchesReference drives both tracers through one seeded
// schedule — interleaved messages from several nodes, some stamped far past
// the inline capacity, a Reset in the middle and re-stamps of the same IDs
// after it — and requires identical traces, ID lists, audits and histograms.
func TestTracerMatchesReference(t *testing.T) {
	clk := &fakeClock{}
	reg, refReg := NewRegistry(), NewRegistry()
	tr := NewTracer(clk.Now, reg)
	ref := &refTracer{clock: clk.Now, reg: refReg, traces: make(map[string]*Trace)}
	rng := rand.New(rand.NewSource(7))
	wheres := []string{"s1", "s2", "cluster", ""}

	var probe []string // every ID the schedule may touch, plus two it never does
	for node := 1; node <= 3; node++ {
		for seq := 0; seq < 120; seq++ {
			probe = append(probe, Key{Node: int64(node), Seq: uint64(seq)}.String())
		}
	}
	probe = append(probe, "m9-9", "m1-100000")

	check := func(when string) {
		t.Helper()
		if got, want := tr.IDs(), ref.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: IDs = %v, want %v", when, got, want)
		}
		if tr.Len() != len(ref.traces) {
			t.Fatalf("%s: Len = %d, want %d", when, tr.Len(), len(ref.traces))
		}
		overflowed := 0
		for _, id := range probe {
			got, ok := tr.Trace(id, nil)
			want := ref.traces[id]
			if ok != (want != nil) || (ok && !reflect.DeepEqual(got, *want)) {
				t.Fatalf("%s: Trace(%s) = %+v, %v; want %+v", when, id, got, ok, want)
			}
			if len(got.Events) > inlineEvents {
				overflowed++
			}
		}
		if overflowed == 0 {
			t.Fatalf("%s: no trace outgrew the inline array; the schedule is too short", when)
		}
		if got, want := tr.incompleteText(probe), ref.Incomplete(probe); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Incomplete = %v, want %v", when, got, want)
		}
		if got, want := reg.Snapshot(), refReg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: histograms differ:\n got %+v\nwant %+v", when, got, want)
		}
	}

	stamp := func(n int) {
		for i := 0; i < n; i++ {
			clk.now += int64(rng.Intn(50))
			// A few hot messages collect most stamps, as a message with many
			// recipients or many retries does.
			seq := rng.Intn(120)
			if rng.Intn(3) == 0 {
				seq = rng.Intn(4)
			}
			k := Key{Node: int64(1 + rng.Intn(3)), Seq: uint64(seq)}
			stage := PipelineStages[rng.Intn(len(PipelineStages))]
			where := wheres[rng.Intn(len(wheres))]
			tr.StampKey(k, stage, Intern(where))
			ref.Stamp(k.String(), stage, where)
		}
	}
	stamp(3000)
	check("before Reset")
	tr.Reset()
	ref.traces = make(map[string]*Trace)
	if tr.Len() != 0 || len(tr.IDs()) != 0 {
		t.Fatalf("Reset left %d traces", tr.Len())
	}
	stamp(3000)
	check("after Reset")
}

// TestStampAllocs holds the tracer to its budget: a stamp on a message
// already traced allocates nothing, a new message's six stages cost less than
// one allocation (its share of a slab and of index growth), and the thirteen
// stamps of a three-recipient lifecycle, three past the inline events, add
// one: the overflow slice, made once at its size.
func TestStampAllocs(t *testing.T) {
	tr := NewTracer(WallClock, NewRegistry())
	s1 := Intern("s1")
	k := Key{Node: 1, Seq: 1}
	tr.StampKey(k, StageSubmit, s1)
	tr.StampKey(k, StageDeposit, s1) // registers lat_deposit
	if n := testing.AllocsPerRun(100, func() { tr.StampKey(k, StageDeposit, s1) }); n != 0 {
		t.Errorf("stamp on an existing trace: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Stamp("m1-1", StageDeposit, "s1") }); n != 0 {
		t.Errorf("string-shim stamp on an existing trace: %v allocs, want 0", n)
	}
	tr.Reset() // the two runs above grew k's overflow slice; start clean
	for _, st := range PipelineStages {
		tr.StampKey(Key{Node: 2, Seq: 0}, st, s1) // registers every histogram
	}
	seq := uint64(0)
	n := testing.AllocsPerRun(20000, func() {
		seq++
		for _, st := range PipelineStages {
			tr.StampKey(Key{Node: 1, Seq: seq}, st, s1)
		}
	})
	if n > 1 {
		t.Errorf("six stages of a fresh message: %v allocs, want ≤ 1", n)
	}
	n = testing.AllocsPerRun(20000, func() {
		seq++
		stampLifecycle(tr, Key{Node: 1, Seq: seq}, 3, s1)
	})
	if n > 1 {
		t.Errorf("a fresh message's three-recipient lifecycle: %v allocs, want ≤ 1", n)
	}
}

// TestRecordLayout pins the sizes the ring arithmetic rests on: an event is
// stored in 16 bytes, and a record with its inline events takes at most 216
// (a SpanEvent took 32, and a record of six of them 248).
func TestRecordLayout(t *testing.T) {
	if c, r := unsafe.Sizeof(cell{}), unsafe.Sizeof(record{}); c != 16 || r > 216 {
		t.Errorf("cell %d B, record %d B; want 16 and at most 216", c, r)
	}
}

// stampLifecycle stamps what the delivery path stamps for one message with
// the given number of recipients: one submit, then each recipient's resolve,
// relay, deposit and retrieve — 1 + 4·recipients events.
func stampLifecycle(tr *Tracer, k Key, recipients int, site Site) {
	tr.StampKey(k, StageSubmit, site)
	for range recipients {
		tr.StampKey(k, StageResolve, site)
		tr.StampKey(k, StageRelay, site)
		tr.StampKey(k, StageDeposit, site)
	}
	for range recipients {
		tr.StampKey(k, StageRetrieve, site)
	}
}

// BenchmarkStampLifecycle is the tracer stamp microbenchmark: one op is a
// fresh message's whole lifecycle (stampLifecycle) for one, two and three
// recipients; the third outgrows the inline events.
func BenchmarkStampLifecycle(b *testing.B) {
	for _, recipients := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rcpts=%d", recipients), func(b *testing.B) {
			tr := NewTracer(WallClock, NewRegistry())
			site := Intern("s1")
			stampLifecycle(tr, Key{Node: 2}, recipients, site) // registers the histograms
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				stampLifecycle(tr, Key{Node: 1, Seq: uint64(i)}, recipients, site)
			}
		})
	}
}
