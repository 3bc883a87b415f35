package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later issue). Times are nanoseconds
// since the recorder started. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = no parent
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count > 1 marks an aggregate: that many sequential calls of one kind
	// inside the parent, laid out back to back from Start. Its duration is
	// the exact sum of the calls; its offset within the parent is not.
	Count int `json:"count,omitempty"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, so workloads call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.t0))
}

// add records a finished span and returns its ID.
func (r *recorder) add(parent int, name string, req, start, end int64, count int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Count: count})
	r.mu.Unlock()
	return id
}

// begin opens a span now; end closes it.
func (r *recorder) begin(parent int, name string, req int64) int {
	if r == nil {
		return 0
	}
	return r.add(parent, name, req, r.now(), -1, 0)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTotals sums, per span name, the duration and the self time: a span's
// duration minus the part of it that its child spans cover. Children may
// overlap each other (pipelined requests), so coverage is the length of the
// union of their intervals, clipped to the parent.
func spanTotals(spans []span) (dur, self map[string]int64) {
	dur, self = make(map[string]int64), make(map[string]int64)
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		d := s.End - s.Start
		dur[s.Name] += d
		self[s.Name] += d - covered(s.Start, s.End, children[s.ID])
	}
	return dur, self
}

// covered returns how much of [lo, hi] the spans cover.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
