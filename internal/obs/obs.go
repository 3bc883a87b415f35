// Package obs is the unified observability layer: one instrumentation API
// shared by the discrete-event simulation and the live concurrent runtime.
//
// The paper's whole §4 evaluation rests on measuring delivery delay, poll
// counts and server load, so instrumentation is a first-class subsystem, not
// an afterthought: a concurrency-safe Registry of named counters, gauges and
// fixed-bucket latency histograms (with p50/p95/p99 snapshots), plus a
// message-lifecycle Tracer that stamps spans across the §3.1.2 delivery
// pipeline — submit → resolve → relay → deposit → notify → retrieve — keyed
// by message ID. Both work identically on the simulated clock (microticks
// from sim.Scheduler.Now) and the wall clock (UnixNano): time is just an
// int64 handed in through a Clock.
//
// Snapshots export as a versioned JSON document and as the aligned-text/CSV
// tables the experiments render, so the paper's tables and the chaos-soak
// reports come from the same registry.
//
// Naming scheme (see DESIGN.md §6): counter and gauge names are snake_case
// "<area>_<event>" ("deposit_failovers", "spool_depth"); per-entity
// instruments append the entity after a dot ("s1.deposits"); latency
// histograms are "lat_<stage>" for stage-to-stage spans and "lat_e2e" for
// the submit→retrieve end-to-end span.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock reports the current instant as an int64 in arbitrary units: microticks
// on the simulated clock, nanoseconds on the wall clock. All instruments and
// spans in one registry/tracer should share one clock.
type Clock func() int64

// WallClock is the live runtime's clock: nanoseconds since the Unix epoch.
func WallClock() int64 { return time.Now().UnixNano() }

// Counter is a monotonically named cumulative count. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (which may be negative: some callers
// account corrections through the same instrument).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named instantaneous value. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a concurrency-safe set of named instruments. The zero value is
// ready to use; NewRegistry exists for symmetry with the packages it
// replaced. Instruments are created on first touch and live for the life of
// the registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c != nil {
		return c
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g != nil {
		return g
	}
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil bounds take DefaultLatencyBuckets). Bounds
// passed on later calls for an existing name are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h != nil {
		return h
	}
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Add increments the named counter by delta. It is the migration-compatible
// surface of the old metrics.Registry/metrics.Shared counter API.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Counter(name).Inc() }

// Get returns the value of the named counter (zero if never touched).
func (r *Registry) Get(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Counters returns a consistent copy of all counter values.
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	return out
}

// Reset drops every instrument. Meant for tests and between experiment runs;
// instrument pointers handed out earlier keep working but are no longer
// reachable from the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = nil
	r.gauges = nil
	r.hists = nil
}

// Snapshot returns a consistent, versioned copy of every instrument, ready
// for JSON export or table rendering.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{Version: SnapshotVersion}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}
