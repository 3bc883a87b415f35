package mailstore

import "github.com/largemail/largemail/internal/sketch"

// Sketch returns a point-in-time Bloom snapshot of the store's live term set
// together with its staleness generation: the OR of every shard's counting
// filter, and the sum of the per-shard mutation counters at the moment each
// shard was read. A caller that caches the snapshot (the broadcast layer's
// subtree aggregation) compares a later SketchGen against the recorded
// generation; inequality means the term set may have changed and the cache
// must fail open.
//
// Shards are snapshotted one at a time under their own read locks, so the
// composite is not a single atomic cut — it can weave together states from
// slightly different instants. That is safe for pruning exactly because the
// generation is read under the same per-shard lock as the bits: any
// mutation racing the snapshot bumps a counter the caller's next SketchGen
// sum will expose as staleness.
//
// Returns (nil, 0) while the term index is disabled: no sketch means no
// proof of absence, so consumers must visit.
func (s *Store) Sketch() (*sketch.Filter, uint64) {
	if !s.TermIndexed() {
		return nil, 0
	}
	f := sketch.NewFilter()
	var gen uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if sh.sk != nil {
			sh.sk.OrInto(f)
			gen += sh.skGen
		}
		sh.mu.RUnlock()
	}
	return f, gen
}

// SketchGen returns the current staleness generation without materialising
// the bits — the cheap probe the pruning path uses to decide whether a
// cached subtree sketch is still trustworthy.
func (s *Store) SketchGen() uint64 {
	var gen uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		gen += sh.skGen
		sh.mu.RUnlock()
	}
	return gen
}
