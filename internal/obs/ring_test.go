package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refRing is the bounded tracer's model: refTracer, plus, per shard, the IDs
// it holds in creation order. A stamp on an ID it does not hold — new, or
// dropped earlier — first drops the shard's oldest once the shard holds
// ringRecords; with limit 0 it never drops.
type refRing struct {
	refTracer
	limit     int
	order     [traceShards][]string
	evictions int64
}

func (t *refRing) Stamp(k Key, stage Stage, where string) {
	id := k.String()
	if t.traces[id] == nil {
		sh := shardIndex(k)
		if t.limit > 0 && len(t.order[sh]) == t.limit {
			delete(t.traces, t.order[sh][0])
			t.order[sh] = t.order[sh][1:]
			t.evictions++
		}
		t.order[sh] = append(t.order[sh], id)
	}
	t.refTracer.Stamp(id, stage, where)
}

// TestRingTracerMatchesReference drives a tracer and the model through one
// seeded stamp program that creates half again as many keys as a bounded
// tracer holds: most stamps go to recent keys, some to keys long dropped (the
// late stamps), a few hot keys outgrow the inline array again and again. The
// bounded tracer must agree with the model on every key ever stamped — the
// trace of each one it should still hold, "missing" for the rest — and on
// IDs, Len, Incomplete, the histograms and the eviction count; a bounded
// tracer told to KeepAll must agree with the model that drops nothing.
func TestRingTracerMatchesReference(t *testing.T) {
	const keys = traceShards * ringRecords * 3 / 2
	for _, keepAll := range []bool{false, true} {
		clk := &fakeClock{}
		reg, refReg := NewRegistry(), NewRegistry()
		tr := NewRingTracer(clk.Now, reg)
		ref := &refRing{
			refTracer: refTracer{clock: clk.Now, reg: refReg, traces: make(map[string]*Trace)},
			limit:     ringRecords,
		}
		if keepAll {
			tr.KeepAll()
			ref.limit = 0
		}
		rng := rand.New(rand.NewSource(19))
		wheres := []string{"s1", "s2", "cluster", ""}
		created := 0
		key := func(i int) Key { return Key{Node: int64(1 + i%3), Seq: uint64(i / 3)} }

		check := func(when string) {
			t.Helper()
			if got, want := tr.Len(), len(ref.traces); got != want {
				t.Fatalf("%s: Len = %d, want %d", when, got, want)
			}
			if got, want := tr.IDs(), ref.IDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: IDs differ (%d against %d)", when, len(got), len(want))
			}
			probe := make([]string, 0, created+1)
			missing, overflowed := 0, 0
			for i := 0; i < created; i++ {
				id := key(i).String()
				probe = append(probe, id)
				got, ok := tr.Trace(id)
				want := ref.traces[id]
				if ok != (want != nil) || (ok && !reflect.DeepEqual(got, *want)) {
					t.Fatalf("%s: Trace(%s) = %+v, %v; want %+v", when, id, got, ok, want)
				}
				if !ok {
					missing++
				}
				if len(got.Events) > inlineEvents {
					overflowed++
				}
			}
			probe = append(probe, "m9-9")
			if overflowed == 0 {
				t.Fatalf("%s: no held trace outgrew the inline array", when)
			}
			if dropped := ref.evictions > 0; dropped != (missing > 0) {
				t.Fatalf("%s: %d evictions but %d traces missing", when, ref.evictions, missing)
			}
			if got, want := tr.Incomplete(probe), ref.Incomplete(probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Incomplete differs (%d against %d)", when, len(got), len(want))
			}
			snap := reg.Snapshot()
			if got, want := snap.Histograms, refReg.Snapshot().Histograms; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: histograms differ:\n got %+v\nwant %+v", when, got, want)
			}
			if got, counted := snap.Counters["trace_evictions"]; got != ref.evictions || counted != (ref.evictions > 0) {
				t.Fatalf("%s: trace_evictions = %d (present %v), want %d", when, got, counted, ref.evictions)
			}
		}

		for created < keys {
			clk.now += int64(rng.Intn(50))
			var k Key
			switch p := rng.Intn(100); {
			case p < 40 || created == 0:
				k = key(created)
				created++
			case p < 90: // a recent key: held, unless its shard has been busy
				k = key(created - 1 - rng.Intn(min(created, 3000)))
			case p < 97: // one of a few keys that keep being stamped
				k = key(rng.Intn(min(created, 8)))
			default: // any key so far: once the ring wraps, mostly dropped ones
				k = key(rng.Intn(created))
			}
			stage := PipelineStages[rng.Intn(len(PipelineStages))]
			where := wheres[rng.Intn(len(wheres))]
			tr.StampKey(k, stage, where)
			ref.Stamp(k, stage, where)
			if created == ringRecords/2 && ref.evictions == 0 {
				check("before the first eviction") // runs once or twice: cheap here
			}
		}
		if dropped := ref.evictions > 0; dropped == keepAll {
			t.Fatalf("keepAll=%v: model dropped %d traces", keepAll, ref.evictions)
		}
		check(fmt.Sprintf("keepAll=%v, at the end", keepAll))
	}
}

// sameShardKeys returns n keys of node that share key k's shard, k excluded.
func sameShardKeys(k Key, node int64, n int) []Key {
	var out []Key
	for seq := uint64(0); len(out) < n; seq++ {
		if c := (Key{Node: node, Seq: seq}); c != k && shardIndex(c) == shardIndex(k) {
			out = append(out, c)
		}
	}
	return out
}

// TestRingLateStamp pins what a stamp does once its key's record has been
// taken over. The taker starts from nothing: its first stamp, a retrieve,
// feeds neither lat_retrieve nor lat_e2e although the record it took held a
// submit instant, a last instant and overflow events. The dropped key reads
// as missing; its own late retrieve starts a fresh one-event trace, feeds no
// histogram either, and drops the shard's next-oldest key.
func TestRingLateStamp(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry()
	tr := NewRingTracer(clk.Now, reg)
	old := Key{Node: 1, Seq: 1}
	clk.now = 10
	tr.StampKey(old, StageSubmit, "s1")
	for i := 0; i < 2*inlineEvents; i++ { // well into the overflow slice
		clk.now += 5
		tr.StampKey(old, StageDeposit, "s1")
	}
	fill := sameShardKeys(old, 2, ringRecords)
	for _, k := range fill[:ringRecords-1] {
		tr.StampKey(k, StageSubmit, "s2")
	}
	if _, ok := tr.Trace(old.String()); !ok || reg.Get("trace_evictions") != 0 {
		t.Fatalf("a shard holding exactly ringRecords keys dropped one (%d evictions)", reg.Get("trace_evictions"))
	}
	samples := func() (n uint64) {
		for _, h := range reg.Snapshot().Histograms {
			n += h.Count
		}
		return n
	}
	before := samples()

	taker := fill[ringRecords-1]
	clk.now = 1000
	tr.StampKey(taker, StageRetrieve, "s3") // takes old's record over
	if got, ok := tr.Trace(taker.String()); !ok || !reflect.DeepEqual(got.Events, []SpanEvent{{Stage: StageRetrieve, At: 1000, Where: "s3"}}) {
		t.Errorf("taker's trace = %+v, %v; want its one retrieve", got, ok)
	}
	if got, ok := tr.Trace(old.String()); ok {
		t.Errorf("dropped key still has a trace: %+v", got)
	}
	if got := tr.Incomplete([]string{old.String()}); len(got) != 1 {
		t.Errorf("Incomplete = %v, want the dropped key reported", got)
	}
	if got := tr.Len(); got != ringRecords {
		t.Errorf("Len = %d, want %d", got, ringRecords)
	}

	clk.now = 2000
	tr.StampKey(old, StageRetrieve, "s1") // the late stamp
	if got, _ := tr.Trace(old.String()); len(got.Events) != 1 || got.Events[0].At != 2000 {
		t.Errorf("late stamp's trace = %+v, want one event of its own", got)
	}
	if _, ok := tr.Trace(fill[0].String()); ok {
		t.Error("the late stamp did not drop the shard's oldest key")
	}
	if _, ok := tr.Trace(taker.String()); !ok {
		t.Error("the late stamp dropped the newest key, not the oldest")
	}
	if after := samples(); after != before {
		t.Errorf("stamps on taken-over records fed %d histogram samples", after-before)
	}
	if _, ok := reg.Snapshot().Histograms["lat_e2e"]; ok {
		t.Error("lat_e2e exists: a retrieve was paired with another key's submit")
	}
	if got := reg.Get("trace_evictions"); got != 2 {
		t.Errorf("trace_evictions = %d, want 2", got)
	}

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left traces")
	}
	for _, k := range fill {
		tr.StampKey(k, StageSubmit, "s2")
	}
	tr.StampKey(old, StageSubmit, "s1")
	if _, ok := tr.Trace(fill[0].String()); ok || tr.Len() != ringRecords {
		t.Errorf("after Reset the shard holds %d keys, its oldest still there: %v", tr.Len(), ok)
	}
}

// TestRingTracerConcurrent has 8 goroutines run their own messages through a
// bounded tracer that wraps several times over, all of them also stamping one
// small shared set of keys; meaningful under -race. Whatever the
// interleaving, the tracer never holds more than its bound, every trace it
// holds has only its own key's events (a worker stamps its keys with its own
// name), and every key created either is held or was counted as dropped.
func TestRingTracerConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := NewRingTracer(WallClock, reg)
	const workers = 8
	const msgs = 3 * traceShards * ringRecords / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			where := fmt.Sprintf("w%d", w+1)
			for i := 0; i < msgs; i++ {
				own := Key{Node: int64(w + 1), Seq: uint64(i)}
				tr.StampKey(own, StageSubmit, where)
				tr.StampKey(Key{Node: 100, Seq: uint64(i % 8)}, StageResolve, "w100")
				tr.StampKey(own, StageDeposit, where)
				tr.StampKey(own, StageRetrieve, where)
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got > traceShards*ringRecords || got < traceShards*ringRecords/2 {
		t.Errorf("Len = %d, want at most %d and most of it", got, traceShards*ringRecords)
	}
	for _, id := range tr.IDs() {
		k, _ := ParseKey(id)
		got, ok := tr.Trace(id)
		if !ok || len(got.Events) == 0 {
			t.Fatalf("held trace %s: %+v, %v", id, got, ok)
		}
		for _, e := range got.Events {
			if e.Where != fmt.Sprintf("w%d", k.Node) {
				t.Fatalf("trace %s holds another key's event %+v", id, e)
			}
		}
	}
	if dropped := reg.Get("trace_evictions"); dropped < int64(workers*msgs-tr.Len()) {
		t.Errorf("trace_evictions = %d with %d keys created and %d held", dropped, workers*msgs, tr.Len())
	}
}

// TestRingStampAllocs: a bounded tracer whose shards are all full takes a new
// message without allocating — the record, its ring slot and its index entry
// are the dropped message's — and a stamp on a held key is free as before.
func TestRingStampAllocs(t *testing.T) {
	tr := NewRingTracer(WallClock, NewRegistry())
	seq := uint64(0)
	pipeline := func() {
		seq++
		for _, st := range PipelineStages {
			tr.StampKey(Key{Node: 1, Seq: seq}, st, "s1")
		}
	}
	for i := 0; i < 2*traceShards*ringRecords; i++ { // twice round: every shard is full
		pipeline()
	}
	if tr.Len() != traceShards*ringRecords {
		t.Fatalf("Len = %d after filling, want %d", tr.Len(), traceShards*ringRecords)
	}
	for i := range tr.shards {
		if sh := &tr.shards[i]; cap(sh.ring) != ringRecords || len(sh.slab) != cap(sh.slab) {
			t.Fatalf("full shard %d: ring capacity %d, last slab %d of %d cells used; want nothing made ahead of use",
				i, cap(sh.ring), len(sh.slab), cap(sh.slab))
		}
	}
	if n := testing.AllocsPerRun(20000, pipeline); n != 0 {
		t.Errorf("six stages of a fresh message on a full ring: %v allocs, want 0", n)
	}
	k := Key{Node: 1, Seq: seq}
	if n := testing.AllocsPerRun(100, func() { tr.StampKey(k, StageDeposit, "s1") }); n != 0 {
		t.Errorf("stamp on a held key: %v allocs, want 0", n)
	}
}
